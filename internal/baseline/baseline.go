// Package baseline implements the comparison methods of the paper's
// evaluation:
//
//   - SmallestUniform: the paper's fallback baseline, "the smallest
//     possible uniform bitwidth for all layers" that still meets the
//     accuracy constraint (Sec. VI).
//   - StripesSearch: the state-of-the-art dynamic search the paper
//     competes against [1][3] — iteratively lower individual layers'
//     bitwidths and re-test accuracy until nothing can be lowered.
//     It produces good assignments but costs many full accuracy
//     evaluations (the motivation for the paper's method, Sec. I).
//   - UniformWeightSearch: the Stripes/Loom-style weight bitwidth
//     search the paper appends after input optimization (Sec. V-E).
package baseline

import (
	"context"
	"fmt"

	"mupod/internal/core"
	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/fixedpoint"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/profile"
	"mupod/internal/tensor"
)

// Options controls the baseline searches.
type Options struct {
	RelDrop    float64 // accuracy-loss constraint (shared with the main method)
	EvalImages int     // images per accuracy evaluation (default: half of ds)
	BatchSize  int     // default 32
	MaxBits    int     // widest total bitwidth considered (default 16)
	MinBits    int     // narrowest (default 1)
	// Workers sets the accuracy-evaluation parallelism (0 = GOMAXPROCS,
	// 1 = sequential). Every injector used here is a stateless
	// quantizer, so results are bit-identical at any worker count; the
	// dynamic searches (Stripes above all) are dominated by these
	// evaluations and speed up near-linearly.
	Workers int
	// Kernel is the kernel policy of every forward pass (zero value =
	// serial).
	Kernel kernels.Policy
}

func (o Options) withDefaults(ds *dataset.Dataset) Options {
	if o.EvalImages == 0 {
		o.EvalImages = ds.Len() / 2
	}
	if o.EvalImages > ds.Len() {
		o.EvalImages = ds.Len()
	}
	if o.BatchSize == 0 {
		o.BatchSize = 32
	}
	if o.MaxBits == 0 {
		o.MaxBits = 16
	}
	if o.MinBits == 0 {
		o.MinBits = 1
	}
	return o
}

// SearchResult wraps a baseline allocation with its search cost.
type SearchResult struct {
	Allocation  *core.Allocation
	Evaluations int // accuracy evaluations performed (the search cost)
}

// accuracy is the shared (parallel, stateless-plan) evaluation of the
// baseline searches.
func accuracy(net *nn.Network, ds *dataset.Dataset, o Options, plan map[int]nn.Injector) float64 {
	acc, _ := exec.Accuracy(context.Background(), o.Workers, o.Kernel, net, ds, o.EvalImages, o.BatchSize, plan)
	return acc
}

func quantAccuracy(net *nn.Network, ds *dataset.Dataset, alloc *core.Allocation, o Options) float64 {
	return accuracy(net, ds, o, alloc.InjectionPlan())
}

// SmallestUniform finds the smallest uniform total bitwidth whose real
// quantized accuracy stays within the constraint, by binary search over
// [MinBits, MaxBits]. Integer bits per layer come from the profile.
func SmallestUniform(net *nn.Network, prof *profile.Profile, ds *dataset.Dataset, o Options) (*SearchResult, error) {
	o = o.withDefaults(ds)
	if o.RelDrop <= 0 {
		return nil, fmt.Errorf("baseline: RelDrop must be positive, got %g", o.RelDrop)
	}
	res := &SearchResult{}
	exact := accuracy(net, ds, o, nil)
	target := exact * (1 - o.RelDrop)

	ok := func(bits int) bool {
		res.Evaluations++
		return quantAccuracy(net, ds, core.Uniform(prof, bits), o) >= target
	}
	if !ok(o.MaxBits) {
		return nil, fmt.Errorf("baseline: even %d uniform bits violate the %g%% constraint", o.MaxBits, o.RelDrop*100)
	}
	lo, hi := o.MinBits, o.MaxBits // invariant: hi passes; lo-1 ≤ … untested
	for lo < hi {
		mid := (lo + hi) / 2
		if ok(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	res.Allocation = core.Uniform(prof, hi)
	res.Allocation.Objective = fmt.Sprintf("uniform%d", hi)
	return res, nil
}

// StripesSearch performs the greedy per-layer dynamic search: starting
// from a uniform assignment that satisfies the constraint, repeatedly
// sweep the layers, provisionally decrement each layer's bitwidth and
// keep the decrement if the (real, quantized) accuracy still meets the
// constraint; stop when a full sweep makes no progress. This is the
// expensive empirical method of [1][3] that the paper's analytic
// pipeline replaces.
func StripesSearch(net *nn.Network, prof *profile.Profile, ds *dataset.Dataset, o Options) (*SearchResult, error) {
	o = o.withDefaults(ds)
	start, err := SmallestUniform(net, prof, ds, o)
	if err != nil {
		return nil, err
	}
	res := &SearchResult{Evaluations: start.Evaluations}
	exact := accuracy(net, ds, o, nil)
	target := exact * (1 - o.RelDrop)

	bits := start.Allocation.Bits()
	for progress := true; progress; {
		progress = false
		for k := range bits {
			if bits[k] <= 0 {
				continue
			}
			bits[k]--
			cand, err := core.WithBits(prof, bits)
			if err != nil {
				return nil, err
			}
			res.Evaluations++
			if quantAccuracy(net, ds, cand, o) >= target {
				progress = true // keep the decrement
			} else {
				bits[k]++ // revert
			}
		}
	}
	alloc, err := core.WithBits(prof, bits)
	if err != nil {
		return nil, err
	}
	alloc.Objective = "stripes_search"
	res.Allocation = alloc
	return res, nil
}

// weightParams collects the weight tensors of every dot-product layer
// (biases are left exact: they are folded into accumulators in the
// accelerators the paper targets).
func weightParams(net *nn.Network) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, nd := range net.Nodes {
		switch l := nd.Layer.(type) {
		case *nn.Conv2D:
			out = append(out, l.W)
		case *nn.DepthwiseConv2D:
			out = append(out, l.W)
		case *nn.Dense:
			out = append(out, l.W)
		}
	}
	return out
}

// QuantizeWeights rounds every dot-product layer's weights to a total
// width of bits (integer part from each tensor's own range) and returns
// a restore function. Sec. V-E quantizes weights uniformly across the
// network, after the input optimization.
func QuantizeWeights(net *nn.Network, bits int) (restore func()) {
	ws := weightParams(net)
	saved := make([][]float64, len(ws))
	for i, w := range ws {
		saved[i] = append([]float64(nil), w.Data...)
		f := fixedpoint.Format{
			IntBits:  fixedpoint.IntBitsForRange(w.MaxAbs()),
			FracBits: bits - fixedpoint.IntBitsForRange(w.MaxAbs()),
		}
		f.QuantizeSlice(w.Data, w.Data)
	}
	return func() {
		for i, w := range ws {
			copy(w.Data, saved[i])
		}
	}
}

// UniformWeightSearch finds the smallest uniform weight bitwidth W that
// keeps accuracy within the constraint WITH the given activation
// allocation applied. Sec. V-E appends this search "after the reduction
// in input bitwidth has been made", so the constraint is relative to
// the activation-quantized accuracy (the activation allocation may
// already sit at the edge of the overall budget; demanding the combined
// drop fit the same budget would make the search infeasible). The
// network's weights are restored before returning.
func UniformWeightSearch(net *nn.Network, alloc *core.Allocation, ds *dataset.Dataset, o Options) (int, error) {
	o = o.withDefaults(ds)
	if o.RelDrop <= 0 {
		return 0, fmt.Errorf("baseline: RelDrop must be positive, got %g", o.RelDrop)
	}
	plan := alloc.InjectionPlan()
	base := accuracy(net, ds, o, plan)
	target := base * (1 - o.RelDrop)

	ok := func(w int) bool {
		restore := QuantizeWeights(net, w)
		defer restore()
		return accuracy(net, ds, o, plan) >= target
	}
	if !ok(o.MaxBits) {
		return 0, fmt.Errorf("baseline: even %d weight bits violate the constraint", o.MaxBits)
	}
	lo, hi := o.MinBits, o.MaxBits
	for lo < hi {
		mid := (lo + hi) / 2
		if ok(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, nil
}
