// Package profile implements the paper's error-injection measurement
// (Sec. V-A): for every analyzable layer K it injects uniform noise of
// boundary Δ_XK into the layer's input, replays the network suffix to
// the last layer Ł, measures the standard deviation σ_{Y_K→Ł} of the
// induced output error, and fits the per-layer linear model of Eq. 5:
//
//	Δ_XK ≈ λ_K·σ_{Y_K→Ł} + θ_K
//
// Exact activations are computed once and cached, so injecting at layer
// K only re-executes the K..Ł suffix of the DAG — this is what makes
// 156-layer networks profileable in minutes (Sec. VI-A).
package profile

import (
	"context"
	"fmt"
	"math"

	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/fault"
	"mupod/internal/fixedpoint"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/obs"
	"mupod/internal/rng"
	"mupod/internal/stats"
	"mupod/internal/tensor"
)

// Config controls a profiling run.
type Config struct {
	// Images is the number of profiling images (paper: 50-200 produce
	// stable regressions; default 30).
	Images int
	// Points is the number of Δ values measured per layer for the
	// regression (paper: 20; default 12).
	Points int
	// DeltaLoFrac / DeltaHiFrac bound the injected Δ sweep as fractions
	// of the layer input's max |x| (defaults 2^-9 and 2^-4). The sweep
	// is logarithmically spaced.
	DeltaLoFrac, DeltaHiFrac float64
	// Seed drives the injected noise.
	Seed uint64
	// TargetSamples sets the adaptive repeat count: each measurement
	// point pools enough independent injection replays that at least
	// this many noise sources contribute (default 8192, capped at 12
	// replays). Late layers have tiny input tensors — a single replay
	// there draws too few uniform deviates for a stable σ estimate —
	// but their replay suffix is short, so the repeats are cheap.
	TargetSamples int
	// IncludeZeros, if set, also perturbs exactly-zero input elements.
	// The default (false) matches fixed point, where zeros are always
	// represented exactly (Fig. 1: "Zero values at X_K are always
	// accurately represented ... and hence not included").
	IncludeZeros bool

	// Workers bounds the replay worker pool (0 = GOMAXPROCS, 1 =
	// sequential). Noise streams are pre-split per (layer, Δ-point,
	// repeat) work item and reduced in a fixed order, so the profile is
	// bit-identical at every worker count — Workers changes wall-clock
	// time only, never results (content-addressed caches hash it out).
	Workers int
	// Kernel is the kernel policy of the exact forward pass and every
	// replay (zero value = serial). Like Workers it never changes
	// results, so caches hash it out.
	Kernel kernels.Policy
}

func (c Config) withDefaults() Config {
	if c.Images == 0 {
		c.Images = 30
	}
	if c.Points == 0 {
		c.Points = 12
	}
	if c.DeltaLoFrac == 0 {
		c.DeltaLoFrac = 1.0 / 512
	}
	if c.DeltaHiFrac == 0 {
		c.DeltaHiFrac = 1.0 / 16
	}
	if c.TargetSamples == 0 {
		c.TargetSamples = 8192
	}
	return c
}

// Normalized returns the config with every zero field replaced by its
// default. Two configs that normalize identically produce identical
// profiles — content-addressed caches (internal/serve) hash the
// normalized form so a zero field and its explicit default share an
// entry.
func (c Config) Normalized() Config { return c.withDefaults() }

// LayerProfile holds the fitted error model and the counting metadata
// of one analyzable layer.
type LayerProfile struct {
	NodeID int
	Name   string
	Kind   string

	// Lambda and Theta are the Eq. 5 constants; R2 is the regression's
	// coefficient of determination and MaxRelErr the worst relative
	// error of predicting Δ from σ over the measured points (the paper
	// reports <5% typical, ~10% worst case).
	Lambda, Theta float64
	R2            float64
	MaxRelErr     float64

	// Deltas/Sigmas are the raw measurement points (x=σ_{Y_K→Ł},
	// y=Δ_XK) behind the fit — exactly what Fig. 2 plots.
	Deltas, Sigmas []float64

	// MaxAbs is max |x| over the layer's profiled inputs; IntBits the
	// derived signed integer bit count (Sec. II-A).
	MaxAbs  float64
	IntBits int

	// Inputs and MACs are the per-image element/operation counts — the
	// ρ_K candidates of Sec. V-D (#Input and #MAC rows of Table II).
	Inputs int
	MACs   int
}

// DeltaFor evaluates Eq. 7 for this layer: Δ = λ·σ_YŁ·√ξ + θ.
func (lp *LayerProfile) DeltaFor(sigmaYL, xi float64) float64 {
	return lp.Lambda*sigmaYL*math.Sqrt(xi) + lp.Theta
}

// FormatFor converts a tolerated Δ into the layer's complete fixed-
// point format (integer bits from the profiled range).
func (lp *LayerProfile) FormatFor(delta float64) fixedpoint.Format {
	return fixedpoint.Format{
		IntBits:  lp.IntBits,
		FracBits: fixedpoint.FracBitsForDelta(delta),
	}
}

// Profile is the per-network profiling result.
type Profile struct {
	NetName string
	Layers  []LayerProfile // analyzable layers in topological order
	Config  Config

	// index maps NodeID → position in Layers. Run builds it eagerly;
	// hand-assembled or deserialized profiles leave it nil and Layer
	// falls back to a linear scan (optimizer objective loops call
	// Layer per evaluation, so the O(1) path matters at depth).
	index map[int]int
}

// Layer returns the profile of the given node ID, or nil.
func (p *Profile) Layer(nodeID int) *LayerProfile {
	if p.index != nil {
		if i, ok := p.index[nodeID]; ok {
			return &p.Layers[i]
		}
		return nil
	}
	for i := range p.Layers {
		if p.Layers[i].NodeID == nodeID {
			return &p.Layers[i]
		}
	}
	return nil
}

// Reindex (re)builds the NodeID→index lookup after Layers is mutated
// or assembled by hand.
func (p *Profile) Reindex() {
	p.index = make(map[int]int, len(p.Layers))
	for i := range p.Layers {
		if _, dup := p.index[p.Layers[i].NodeID]; !dup {
			p.index[p.Layers[i].NodeID] = i
		}
	}
}

// NumLayers returns Ł, the number of analyzable layers.
func (p *Profile) NumLayers() int { return len(p.Layers) }

// UniformInjector returns an nn.Injector adding i.i.d. uniform noise of
// boundary delta to every (non-zero unless includeZeros) element; a
// non-positive delta copies the input unchanged.
func UniformInjector(r *rng.RNG, delta float64, includeZeros bool) nn.Injector {
	return func(dst, src *tensor.Tensor) {
		if delta <= 0 {
			copy(dst.Data, src.Data)
			return
		}
		r.AddUniform(dst.Data, src.Data, delta, includeZeros)
	}
}

// QuantizeInjector returns an nn.Injector that REALLY quantizes the
// tensor to the given fixed-point format — used for final validation of
// an allocation, where the statistical model is replaced by actual
// rounding.
func QuantizeInjector(f fixedpoint.Format) nn.Injector {
	return func(dst, src *tensor.Tensor) {
		f.QuantizeSlice(dst.Data, src.Data)
	}
}

// Check reports whether c can profile on ds under ctx: enough images,
// a live context and a valid kernel policy.
func (c Config) Check(ctx context.Context, ds *dataset.Dataset) error {
	if ds.Len() < c.Images {
		return fmt.Errorf("dataset has %d images, config needs %d", ds.Len(), c.Images)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.Kernel.Validate()
}

// Run profiles every analyzable layer of net over the first cfg.Images
// images of ds.
func Run(net *nn.Network, ds *dataset.Dataset, cfg Config) (*Profile, error) {
	return RunContext(context.Background(), net, ds, cfg)
}

// RunContext is Run with cancellation: workers check ctx between
// replays, so a long profiling run aborts promptly when the caller
// cancels (the serving daemon relies on this). The Δ-sweep runs on
// cfg.Workers goroutines through Sweep, bit-identical at every worker
// count.
func RunContext(ctx context.Context, net *nn.Network, ds *dataset.Dataset, cfg Config) (*Profile, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Check(ctx, ds); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	ctx, psp := obs.Start(ctx, "profile",
		obs.KV("net", net.Name), obs.KV("images", cfg.Images), obs.KV("workers", cfg.Workers))
	defer psp.End()

	// Step 1 of Sec. V-A: record the exact output Y_Ł (and every
	// intermediate activation, enabling suffix-only replay) — on the
	// same kernel backend the replay sessions will use, so cached
	// activations and replays share one accumulation order.
	_, fsp := obs.Start(ctx, "profile.forward", obs.KV("batch", cfg.Images))
	acts := net.ForwardAllOn(kernels.MustNew(cfg.Kernel), ds.Batch(0, cfg.Images))
	fsp.End()

	// Per-layer preparation is cheap and sequential: metadata, the
	// adaptive repeat count, the Δ grid and the noise streams.
	p := &Profile{NetName: net.Name, Config: cfg}
	var targets []Target
	items := 0
	for _, nodeID := range net.AnalyzableNodes() {
		lp, t, err := prepLayer(net, acts, nodeID, cfg)
		if err != nil {
			return nil, fmt.Errorf("profile: layer %s: %w", net.Nodes[nodeID].Name, err)
		}
		p.Layers = append(p.Layers, lp)
		targets = append(targets, t)
		items += len(t.RNGs)
	}
	// Not wrapped with a "profile:" prefix: the injected error already
	// names its point, and the serve layer prefixes stage errors itself.
	if err := fault.Hit(ctx, "profile.sweep"); err != nil {
		return nil, err
	}
	sctx, ssp := obs.Start(ctx, "profile.sweep",
		obs.KV("layers", len(targets)), obs.KV("items", items))
	sigmas, err := Sweep(sctx, exec.NewPool(net, cfg.Workers, cfg.Kernel), acts, targets)
	ssp.End()
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	for k := range p.Layers {
		lp := &p.Layers[k]
		_, lsp := obs.Start(ctx, "profile.layer",
			obs.KV("layer", lp.Name), obs.KV("repeats", targets[k].Repeats))
		lp.Deltas, lp.Sigmas = targets[k].Deltas, sigmas[k]
		fit, err := Fit(lp.Deltas, lp.Sigmas)
		if err != nil {
			lsp.End()
			return nil, fmt.Errorf("profile: layer %s: %w", lp.Name, err)
		}
		lp.Lambda, lp.Theta, lp.R2 = fit.Slope, fit.Intercept, fit.R2
		lp.MaxRelErr = stats.Max(fit.RelativeErrors(lp.Sigmas, lp.Deltas))
		lsp.SetAttr("lambda", lp.Lambda)
		lsp.SetAttr("theta", lp.Theta)
		lsp.SetAttr("r2", lp.R2)
		lsp.End()
	}
	p.Reindex()
	return p, nil
}

func prepLayer(net *nn.Network, acts []*tensor.Tensor, nodeID int, cfg Config) (LayerProfile, Target, error) {
	nd := net.Nodes[nodeID]
	input := acts[nd.Inputs[0]]
	maxAbs := input.MaxAbs()
	lp := LayerProfile{
		NodeID:  nodeID,
		Name:    nd.Name,
		Kind:    nd.Layer.Kind(),
		MaxAbs:  maxAbs,
		IntBits: fixedpoint.IntBitsForRange(maxAbs),
		Inputs:  net.InputCount(nodeID),
		MACs:    net.MACCount(nodeID),
	}
	if maxAbs == 0 {
		return lp, Target{}, fmt.Errorf("input is all zeros; network is degenerate here")
	}

	// Adaptive repeat count: pool replays until enough independent
	// noise sources contribute to the σ estimate.
	nonzero := 0
	for _, v := range input.Data {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		return lp, Target{}, fmt.Errorf("input has no non-zero elements")
	}
	repeats := min(max((cfg.TargetSamples+nonzero-1)/nonzero, 1), 12)
	t := cfg.Target(nodeID, maxAbs, repeats, cfg.Seed^uint64(nodeID)*0x9e3779b97f4a7c15,
		func(_ int, r *rng.RNG, delta float64) (nn.Layer, nn.Injector) {
			return nil, UniformInjector(r, delta, cfg.IncludeZeros)
		})
	return lp, t, nil
}

// Target is one injection site of a Sweep: a layer's input (this
// package), a channel slice of it (internal/groups) or a layer's
// weights (internal/weights). Its owner derives the schedule, so each
// kind keeps its own max|x|, repeat rule and seed derivation.
type Target struct {
	NodeID  int
	Deltas  []float64  // one Δ per measurement point
	Repeats int        // replays pooled per point
	RNGs    []*rng.RNG // one noise stream per (point, repeat), point-major
	// Perturb builds one replay's perturbation at Δ = delta from its
	// noise stream: a stand-in for NodeID's layer, an injector for its
	// input, or both (see exec.Session.Replay). worker, in
	// [0, Workers()) of the sweep's pool, indexes the caller's
	// per-worker scratch.
	Perturb func(worker int, r *rng.RNG, delta float64) (nn.Layer, nn.Injector)
}

// Target schedules one injection site: c.Points Δ values log-spaced
// over [DeltaLoFrac, DeltaHiFrac]·maxAbs, and repeats noise streams per
// point, split from rng.New(seed) in (point, repeat) order — the order
// a sequential sweep would consume them.
func (c Config) Target(nodeID int, maxAbs float64, repeats int, seed uint64,
	perturb func(worker int, r *rng.RNG, delta float64) (nn.Layer, nn.Injector)) Target {
	t := Target{NodeID: nodeID, Repeats: repeats, Perturb: perturb}
	base := rng.New(seed)
	lo, hi := c.DeltaLoFrac*maxAbs, c.DeltaHiFrac*maxAbs
	for pt := 0; pt < c.Points; pt++ {
		frac := 0.0
		if c.Points > 1 {
			frac = float64(pt) / float64(c.Points-1)
		}
		t.Deltas = append(t.Deltas, lo*math.Pow(hi/lo, frac))
		for rep := 0; rep < repeats; rep++ {
			t.RNGs = append(t.RNGs, base.Split())
		}
	}
	return t
}

// Sweep is the one injection-sweep engine (Sec. V-A) behind the
// activation, channel-group and weight profilers. It flattens every
// (target, point, repeat) replay from the exact activations acts of
// the pool's network into one work list, fans it out on pool, and
// pools each point's output error over its repeats, in that fixed
// order, into sigmas[target][point] = σ_{Y→Ł}. Noise streams are
// pre-split per item, so the result is bit-identical at every worker
// count. Each replay records its kernel spans under its own item's
// span when ctx carries a tracer.
func Sweep(ctx context.Context, pool *exec.Pool, acts []*tensor.Tensor, targets []Target) ([][]float64, error) {
	type workItem struct{ target, pt, rep int }
	var items []workItem
	for k := range targets {
		for pt := range targets[k].Deltas {
			for rep := 0; rep < targets[k].Repeats; rep++ {
				items = append(items, workItem{k, pt, rep})
			}
		}
	}
	// Item i's diff vector lands in slot i of one shared block, so each
	// point's repeats sit contiguously in pooling order.
	exact := acts[len(acts)-1]
	stride := exact.Len()
	diffs := make([]float64, len(items)*stride)
	err := pool.Map(ctx, len(items), func(ctx context.Context, worker, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		sess := pool.Session(worker)
		sess.Trace(ctx)
		it := items[i]
		t := &targets[it.target]
		layer, inject := t.Perturb(worker, t.RNGs[it.pt*t.Repeats+it.rep], t.Deltas[it.pt])
		out := sess.Replay(acts, t.NodeID, layer, inject)
		dst := diffs[i*stride : (i+1)*stride]
		for j := range dst {
			dst[j] = out.Data[j] - exact.Data[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	sigmas := make([][]float64, len(targets))
	off := 0
	for k := range targets {
		n := targets[k].Repeats * stride
		for range targets[k].Deltas {
			_, sd := stats.MeanStd(diffs[off : off+n])
			sigmas[k] = append(sigmas[k], sd)
			off += n
		}
	}
	return sigmas, nil
}

// Fit fits Eq. 5 to a target's measured (σ, Δ) points with
// relative-error weighting (w = 1/Δ²), which balances the log-spaced
// sweep so the fit is accurate across the whole operating range, not
// just at the largest Δ. A non-positive λ is an error.
func Fit(deltas, sigmas []float64) (stats.LinearFit, error) {
	w := make([]float64, len(deltas))
	for i, d := range deltas {
		w[i] = 1 / (d * d)
	}
	fit, err := stats.FitLineWeighted(sigmas, deltas, w)
	if err == nil && fit.Slope <= 0 {
		err = fmt.Errorf("non-positive λ=%.4g (R²=%.3f): injection did not reach the output", fit.Slope, fit.R2)
	}
	return fit, err
}
