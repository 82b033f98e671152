// Package weights extends the paper's method from activations to
// WEIGHTS at layer granularity. Eq. 2 of the paper is symmetric in the
// two operands of the dot product (δ_y ≈ Σ x_i·δ_wi + Σ w_i·δ_xi), so
// the same cross-layer postulate applies to weight rounding noise:
//
//	Δ_WK ≈ λw_K·σ_{Y_K→Ł} + θw_K
//
// with constants measurable by injecting uniform noise into layer K's
// weights and regressing, exactly like internal/profile does for
// inputs. Sec. V-E of the paper appends a UNIFORM weight bitwidth
// search (as Stripes/Loom do); this package is the natural extension
// the paper leaves open: a JOINT per-layer decomposition of one output
// error budget across 2Ł noise sources (Ł activation + Ł weight),
// solved by the same simplex optimizer.
package weights

import (
	"context"
	"fmt"

	"mupod/internal/core"
	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/fixedpoint"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/optimize"
	"mupod/internal/profile"
	"mupod/internal/rng"
	"mupod/internal/tensor"
)

// LayerWeightProfile is the noise source at one layer's weights. Its
// MaxAbs is max |w|; Params is the number of weight scalars (the
// storage ρ).
type LayerWeightProfile struct {
	profile.Source
	Params int
	MACs   int
}

// Profile holds the weight-noise model of every analyzable layer.
type Profile struct {
	NetName string
	Layers  []LayerWeightProfile
}

// NumLayers returns Ł.
func (p *Profile) NumLayers() int { return len(p.Layers) }

// Sources returns the layers' weight-noise sources in layer order.
func (p *Profile) Sources() []*profile.Source {
	out := make([]*profile.Source, len(p.Layers))
	for k := range p.Layers {
		out[k] = &p.Layers[k].Source
	}
	return out
}

// weightTensor returns the weight tensor of a dot-product layer and a
// constructor of the layer's shallow copy holding other weights (nil
// for layers without one).
func weightTensor(l nn.Layer) (*tensor.Tensor, func(w *tensor.Tensor) nn.Layer) {
	switch t := l.(type) {
	case *nn.Conv2D:
		return t.W, func(w *tensor.Tensor) nn.Layer { c := *t; c.W = w; return &c }
	case *nn.DepthwiseConv2D:
		return t.W, func(w *tensor.Tensor) nn.Layer { c := *t; c.W = w; return &c }
	case *nn.Dense:
		return t.W, func(w *tensor.Tensor) nn.Layer { c := *t; c.W = w; return &c }
	default:
		return nil, nil
	}
}

// Config reuses the activation profiler's tunables.
type Config = profile.Config

// Run profiles the weight-noise propagation of every analyzable layer.
// The network is only read: each replay perturbs a private copy of one
// layer's weights.
func Run(net *nn.Network, ds *dataset.Dataset, cfg Config) (*Profile, error) {
	return RunContext(context.Background(), net, ds, cfg)
}

// RunContext is Run with cancellation. Every layer's weight tensor is
// one target of profile.Sweep, run on cfg.Workers goroutines (0 =
// GOMAXPROCS): a replay computes layer K with a shallow copy of it
// holding the worker's perturbed weights (exec.Session.Replay),
// so concurrent callers may share net, and the profile is
// bit-identical at every worker count.
func RunContext(ctx context.Context, net *nn.Network, ds *dataset.Dataset, cfg Config) (*Profile, error) {
	cfg = cfg.Normalized()
	if err := cfg.Check(ctx, ds); err != nil {
		return nil, fmt.Errorf("weights: %w", err)
	}
	acts := net.ForwardAllOn(kernels.MustNew(cfg.Kernel), ds.Batch(0, cfg.Images))

	// Weight noise is one realization shared by every image, so the
	// output-error sample size per replay is (images × logits); pool
	// several independent realizations per point like the activation
	// profiler does.
	logits := acts[len(acts)-1].Len()
	repeats := min(max((cfg.TargetSamples+logits-1)/logits, 2), 12)
	pool := exec.NewPool(net, cfg.Workers, cfg.Kernel)
	private := make([][]float64, pool.Workers()) // perturbed weights, one buffer per worker
	p := &Profile{NetName: net.Name}
	var targets []profile.Target
	for _, nodeID := range net.AnalyzableNodes() {
		nd := net.Nodes[nodeID]
		w, with := weightTensor(nd.Layer)
		if w == nil {
			return nil, fmt.Errorf("weights: layer %s: no weight tensor", nd.Name)
		}
		maxAbs := w.MaxAbs()
		if maxAbs == 0 {
			return nil, fmt.Errorf("weights: layer %s: weights are all zero", nd.Name)
		}
		p.Layers = append(p.Layers, LayerWeightProfile{
			Source: profile.NewSource(nodeID, nd.Name, maxAbs),
			Params: w.Len(),
			MACs:   net.MACCount(nodeID),
		})
		targets = append(targets, cfg.Target(nodeID, maxAbs, repeats, cfg.Seed^uint64(nodeID)*0xb5297a4d^0x77,
			func(worker int, r *rng.RNG, delta float64) (nn.Layer, nn.Injector) {
				if len(private[worker]) < w.Len() {
					private[worker] = make([]float64, w.Len())
				}
				pw := &tensor.Tensor{Shape: w.Shape, Data: private[worker][:w.Len()]}
				r.AddUniform(pw.Data, w.Data, delta, true)
				return with(pw), nil
			}))
	}

	sigmas, err := profile.Sweep(ctx, pool, acts, targets)
	if err != nil {
		return nil, fmt.Errorf("weights: %w", err)
	}
	for k := range p.Layers {
		if err := p.Layers[k].Fit(targets[k].Deltas, sigmas[k]); err != nil {
			return nil, fmt.Errorf("weights: layer %s: %w", p.Layers[k].Name, err)
		}
	}
	return p, nil
}

// LayerWeightAlloc is one layer's weight format assignment.
type LayerWeightAlloc struct {
	NodeID int
	Name   string
	Xi     float64
	Delta  float64
	Format fixedpoint.Format
	Bits   int
	Params int
	MACs   int
}

// Allocation assigns a weight format to every analyzable layer.
type Allocation struct {
	NetName string
	SigmaYL float64
	Layers  []LayerWeightAlloc
}

// Bits returns the per-layer weight widths.
func (a *Allocation) Bits() []int {
	out := make([]int, len(a.Layers))
	for i := range a.Layers {
		out[i] = a.Layers[i].Bits
	}
	return out
}

// StorageBits is Σ params_K · bits_K — the weight memory footprint.
func (a *Allocation) StorageBits() int64 {
	var total int64
	for i := range a.Layers {
		total += int64(a.Layers[i].Params) * int64(a.Layers[i].Bits)
	}
	return total
}

// EffectiveStorageBits is the storage-weighted mean width.
func (a *Allocation) EffectiveStorageBits() float64 {
	var num, den float64
	for i := range a.Layers {
		num += float64(a.Layers[i].Params) * float64(a.Layers[i].Bits)
		den += float64(a.Layers[i].Params)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Apply quantizes the network's weights to the allocation's formats IN
// PLACE and returns a restore function. Until restore runs, every user
// of net sees the quantized weights, so callers must not share net with
// concurrent readers (a zoo.Load network is process-wide).
func (a *Allocation) Apply(net *nn.Network) (restore func()) {
	var saved [][]float64
	var tensors []*tensor.Tensor
	for _, la := range a.Layers {
		w, _ := weightTensor(net.Nodes[la.NodeID].Layer)
		if w == nil {
			continue
		}
		saved = append(saved, append([]float64(nil), w.Data...))
		tensors = append(tensors, w)
		la.Format.QuantizeSlice(w.Data, w.Data)
	}
	return func() {
		for i, w := range tensors {
			copy(w.Data, saved[i])
		}
	}
}

// JointConfig tunes the joint activation+weight allocation.
type JointConfig struct {
	// ActRho / WeightRho weight the two groups in the objective; nil
	// defaults to #Input for activations and #Params for weights
	// (bandwidth + storage). Lengths must equal Ł when set.
	ActRho, WeightRho []float64
	DeltaFloor        float64
}

// JointAllocate splits ONE output-error budget σ_YŁ across 2Ł noise
// sources — every layer's activations and every layer's weights — by
// building a 2Ł-dimensional Eq. 8 objective and solving it with the
// same exact solver, optimize.Solve. It returns the activation
// allocation and the weight allocation.
func JointAllocate(aprof *profile.Profile, wprof *Profile, sigmaYL float64, cfg JointConfig) (*core.Allocation, *Allocation, error) {
	L := aprof.NumLayers()
	if wprof.NumLayers() != L {
		return nil, nil, fmt.Errorf("weights: %d activation layers vs %d weight layers", L, wprof.NumLayers())
	}
	if (cfg.ActRho != nil && len(cfg.ActRho) != L) || (cfg.WeightRho != nil && len(cfg.WeightRho) != L) {
		return nil, nil, fmt.Errorf("weights: ρ lengths %d/%d for %d layers", len(cfg.ActRho), len(cfg.WeightRho), L)
	}
	// The first Ł sources are activations, the last Ł weights.
	rho := append(make([]float64, 0, 2*L), cfg.ActRho...)
	if cfg.ActRho == nil {
		for k := range aprof.Layers {
			rho = append(rho, float64(aprof.Layers[k].Inputs))
		}
	}
	rho = append(rho, cfg.WeightRho...)
	if cfg.WeightRho == nil {
		for k := range wprof.Layers {
			rho = append(rho, float64(wprof.Layers[k].Params))
		}
	}
	obj, err := optimize.NewBitObjective(append(aprof.Sources(), wprof.Sources()...), sigmaYL, rho, cfg.DeltaFloor)
	if err != nil {
		return nil, nil, err
	}
	xi, _, err := optimize.Solve(context.Background(), obj)
	if err != nil {
		return nil, nil, err
	}

	actAlloc, err := core.FromXi(aprof, sigmaYL, xi[:L], "joint_act", cfg.DeltaFloor)
	if err != nil {
		return nil, nil, err
	}
	wAlloc := &Allocation{NetName: wprof.NetName, SigmaYL: sigmaYL}
	for k := range wprof.Layers {
		lp := &wprof.Layers[k]
		delta, f := lp.Allot(sigmaYL, xi[L+k], cfg.DeltaFloor, 1)
		wAlloc.Layers = append(wAlloc.Layers, LayerWeightAlloc{
			NodeID: lp.NodeID,
			Name:   lp.Name,
			Xi:     xi[L+k],
			Delta:  delta,
			Format: f,
			Bits:   f.Width(),
			Params: lp.Params,
			MACs:   lp.MACs,
		})
	}
	return actAlloc, wAlloc, nil
}

// Validate measures real top-1 accuracy with BOTH the activation
// formats and the weight formats applied. Quantization injectors are
// stateless, so the evaluation runs on GOMAXPROCS workers with a
// bit-identical result at any worker count. The weight formats are
// applied to net in place for the evaluation (see Apply), so it must
// not run concurrently with other users of net.
func Validate(net *nn.Network, ds *dataset.Dataset, n int, act *core.Allocation, w *Allocation) float64 {
	restore := w.Apply(net)
	defer restore()
	acc, _ := exec.Accuracy(context.Background(), 0, kernels.Policy{}, net, ds, n, 32, act.InjectionPlan())
	return acc
}
