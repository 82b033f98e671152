// Package groups pushes the paper's method BELOW layer granularity:
// each analyzable layer's input channels are split into G groups, every
// group becomes its own noise source with its own measured λ/θ and its
// own fixed-point format. Sec. I argues this is exactly where dynamic
// search dies ("because it is very time-consuming, this approach can
// only assign precision at a coarse granularity") and where theoretical
// bounds are "impractical at finer granularities" — while the
// statistical pipeline just grows its simplex from Ł to Σ_K G_K
// coordinates at linear profiling cost.
//
// The payoff is concrete: channel groups often have very different
// value ranges, so per-group integer bits alone can save storage even
// before the fraction bits are optimized.
package groups

import (
	"context"
	"fmt"
	"math"

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

// Config tunes group profiling.
type Config struct {
	// Groups is the target number of channel groups per layer (clamped
	// to the layer's channel count; default 2).
	Groups int
	// Profile carries the shared injection budgets.
	Profile profile.Config
}

func (c Config) withDefaults() Config {
	if c.Groups == 0 {
		c.Groups = 2
	}
	// Groups profile fewer images and points than whole layers; the
	// rest of the sweep defaults are the activation profiler's.
	if c.Profile.Images == 0 {
		c.Profile.Images = 24
	}
	if c.Profile.Points == 0 {
		c.Profile.Points = 10
	}
	c.Profile = c.Profile.Normalized()
	return c
}

// GroupProfile is the fitted model of one channel group.
type GroupProfile struct {
	NodeID int
	Name   string // "<layer>#<group>"
	Group  int
	// LoChan/HiChan bound the channel range [LoChan, HiChan) of a 4-D
	// input; for 2-D (flattened FC) inputs they bound feature indices.
	LoChan, HiChan int

	Lambda, Theta float64
	R2            float64

	MaxAbs  float64
	IntBits int
	Inputs  int // elements of this group per image
}

// DeltaFor evaluates Eq. 7 for the group.
func (g *GroupProfile) DeltaFor(sigmaYL, xi float64) float64 {
	return g.Lambda*sigmaYL*math.Sqrt(xi) + g.Theta
}

// Profile is the per-network group-granular profiling result.
type Profile struct {
	NetName string
	Groups  []GroupProfile
}

// NumSources returns the total number of noise sources (Σ_K G_K).
func (p *Profile) NumSources() int { return len(p.Groups) }

// groupRanges calls fn with the bounds [a, b) of the contiguous run of
// t.Data that channels [lo, hi) of a 4-D tensor (or features [lo, hi)
// of a 2-D tensor) occupy in each image, in image order.
func groupRanges(t *tensor.Tensor, lo, hi int, fn func(a, b int)) {
	if r := len(t.Shape); r != 2 && r != 4 {
		panic(fmt.Sprintf("groups: unsupported input rank %d", r))
	}
	channels, inner := t.Shape[1], 1 // inner: elements per channel
	for _, d := range t.Shape[2:] {
		inner *= d
	}
	hi = min(hi, channels)
	for n := 0; n < t.Shape[0] && lo < hi; n++ {
		base := n * channels * inner
		fn(base+lo*inner, base+hi*inner)
	}
}

// groupInjector copies its input and perturbs only the group's channels.
func groupInjector(r *rng.RNG, delta float64, lo, hi int) nn.Injector {
	return func(dst, src *tensor.Tensor) {
		copy(dst.Data, src.Data)
		if delta <= 0 {
			return
		}
		groupRanges(dst, lo, hi, func(a, b int) {
			r.AddUniform(dst.Data[a:b], dst.Data[a:b], delta, false)
		})
	}
}

// groupMaxAbs measures max |x| over the group's channels.
func groupMaxAbs(t *tensor.Tensor, lo, hi int) float64 {
	max := 0.0
	groupRanges(t, lo, hi, func(a, b int) {
		for _, v := range t.Data[a:b] {
			if m := math.Abs(v); m > max {
				max = m
			}
		}
	})
	return max
}

// groupRepeats pools a few realizations per point; groups are small.
const groupRepeats = 4

// Run profiles every channel group of every analyzable layer.
func Run(net *nn.Network, ds *dataset.Dataset, cfg Config) (*Profile, error) {
	return RunContext(context.Background(), net, ds, cfg)
}

// RunContext is Run with cancellation. Every group is one target of
// the activation profiler's profile.Sweep, run on cfg.Profile.Workers
// goroutines, so the profile is bit-identical at every worker count.
func RunContext(ctx context.Context, net *nn.Network, ds *dataset.Dataset, cfg Config) (*Profile, error) {
	cfg = cfg.withDefaults()
	pc := cfg.Profile
	if err := pc.Check(ctx, ds); err != nil {
		return nil, fmt.Errorf("groups: %w", err)
	}
	acts := net.ForwardAllOn(kernels.MustNew(pc.Kernel), ds.Batch(0, pc.Images))

	// Sequential prep: group bounds, metadata, Δ grid, pre-split RNGs.
	p := &Profile{NetName: net.Name}
	var targets []profile.Target
	for _, nodeID := range net.AnalyzableNodes() {
		nd := net.Nodes[nodeID]
		input := acts[nd.Inputs[0]]
		channels := input.Shape[1]
		g := min(cfg.Groups, channels)
		perImage := net.InputCount(nodeID)
		for gi := 0; gi < g; gi++ {
			lo := gi * channels / g
			hi := (gi + 1) * channels / g
			maxAbs := groupMaxAbs(input, lo, hi)
			if maxAbs == 0 {
				return nil, fmt.Errorf("groups: %s#%d: group input is all zeros", nd.Name, gi)
			}
			p.Groups = append(p.Groups, GroupProfile{
				NodeID: nodeID,
				Name:   fmt.Sprintf("%s#%d", nd.Name, gi),
				Group:  gi,
				LoChan: lo, HiChan: hi,
				MaxAbs:  maxAbs,
				IntBits: fixedpoint.IntBitsForRange(maxAbs),
				Inputs:  perImage * (hi - lo) / channels,
			})
			targets = append(targets, pc.Target(nodeID, maxAbs, groupRepeats,
				pc.Seed^uint64(nodeID)*0x9e3779b97f4a7c15^uint64(gi)<<48,
				func(_ int, r *rng.RNG, delta float64) (nn.Layer, nn.Injector) {
					return nil, groupInjector(r, delta, lo, hi)
				}))
		}
	}

	sigmas, err := profile.Sweep(ctx, exec.NewPool(net, pc.Workers, pc.Kernel), acts, targets)
	if err != nil {
		return nil, fmt.Errorf("groups: %w", err)
	}
	for k := range p.Groups {
		gp := &p.Groups[k]
		fit, err := profile.Fit(targets[k].Deltas, sigmas[k])
		if err != nil {
			return nil, fmt.Errorf("groups: %s: %w", gp.Name, err)
		}
		gp.Lambda, gp.Theta, gp.R2 = fit.Slope, fit.Intercept, fit.R2
	}
	return p, nil
}

// GroupAlloc is one group's format assignment.
type GroupAlloc struct {
	GroupProfile
	Xi     float64
	Delta  float64
	Format fixedpoint.Format
	Bits   int
}

// Allocation assigns a format per channel group.
type Allocation struct {
	NetName string
	SigmaYL float64
	Groups  []GroupAlloc
}

// EffectiveInputBits is the element-weighted mean width.
func (a *Allocation) EffectiveInputBits() float64 {
	var num, den float64
	for i := range a.Groups {
		num += float64(a.Groups[i].Inputs) * float64(a.Groups[i].Bits)
		den += float64(a.Groups[i].Inputs)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// TotalInputBits is Σ elements_g · bits_g per image.
func (a *Allocation) TotalInputBits() int64 {
	var total int64
	for i := range a.Groups {
		total += int64(a.Groups[i].Inputs) * int64(a.Groups[i].Bits)
	}
	return total
}

// InjectionPlan builds the per-node injector applying every group's
// real quantization.
func (a *Allocation) InjectionPlan() map[int]nn.Injector {
	byNode := map[int][]GroupAlloc{}
	for _, g := range a.Groups {
		byNode[g.NodeID] = append(byNode[g.NodeID], g)
	}
	plan := make(map[int]nn.Injector, len(byNode))
	for node, gs := range byNode {
		plan[node] = func(dst, src *tensor.Tensor) {
			copy(dst.Data, src.Data)
			for _, g := range gs {
				groupRanges(dst, g.LoChan, g.HiChan, func(a, b int) {
					g.Format.QuantizeSlice(dst.Data[a:b], dst.Data[a:b])
				})
			}
		}
	}
	return plan
}

// Allocate solves Eq. 8 over all Σ_K G_K group sources (ρ = element
// count per group, i.e. the bandwidth objective at group granularity).
func Allocate(prof *Profile, sigmaYL float64, deltaFloor float64) (*Allocation, error) {
	n := prof.NumSources()
	if n == 0 {
		return nil, fmt.Errorf("groups: empty profile")
	}
	// Reuse the layer-level objective machinery through a synthetic
	// layer profile per group.
	synth := &profile.Profile{NetName: prof.NetName}
	rho := make([]float64, n)
	for i := range prof.Groups {
		synth.Layers = append(synth.Layers, profile.LayerProfile{
			Lambda: prof.Groups[i].Lambda,
			Theta:  prof.Groups[i].Theta,
		})
		rho[i] = float64(prof.Groups[i].Inputs)
	}
	obj, err := optimize.NewBitObjective(synth, sigmaYL, rho, deltaFloor)
	if err != nil {
		return nil, err
	}
	xi, _, err := optimize.Solve(context.Background(), obj)
	if err != nil {
		return nil, err
	}
	floor := deltaFloor
	if floor <= 0 {
		floor = optimize.DefaultDeltaFloor
	}
	a := &Allocation{NetName: prof.NetName, SigmaYL: sigmaYL}
	for i := range prof.Groups {
		g := &prof.Groups[i]
		delta := g.DeltaFor(sigmaYL, xi[i])
		if delta < floor {
			delta = floor
		}
		f := fixedpoint.Format{IntBits: g.IntBits, FracBits: fixedpoint.FracBitsForDelta(delta)}
		a.Groups = append(a.Groups, GroupAlloc{
			GroupProfile: *g,
			Xi:           xi[i],
			Delta:        delta,
			Format:       f,
			Bits:         f.Width(),
		})
	}
	return a, nil
}

// Validate measures real accuracy with the group formats applied.
// Group quantizers are stateless, so the evaluation runs on GOMAXPROCS
// workers with a bit-identical result at any worker count.
func Validate(net *nn.Network, ds *dataset.Dataset, n int, a *Allocation) float64 {
	acc, _ := exec.Accuracy(context.Background(), 0, kernels.Policy{}, net, ds, n, 32, a.InjectionPlan())
	return acc
}
