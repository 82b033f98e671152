package baseline

import (
	"context"
	"sync"
	"testing"

	"mupod/internal/core"
	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/profile"
	"mupod/internal/testnet"
)

var (
	fixOnce sync.Once
	fixProf *profile.Profile
)

func sharedProfile(t *testing.T) *profile.Profile {
	t.Helper()
	fixOnce.Do(func() {
		net, _, te := testnet.Trained()
		p, err := profile.Run(net, te, profile.Config{Images: 16, Points: 8, Seed: 5})
		if err == nil {
			fixProf = p
		}
	})
	if fixProf == nil {
		t.Fatal("profile fixture unavailable")
	}
	return fixProf
}

func TestSmallestUniformMeetsConstraint(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	o := Options{RelDrop: 0.05, EvalImages: 120}
	res, err := SmallestUniform(net, prof, te, o)
	if err != nil {
		t.Fatal(err)
	}
	bits := res.Allocation.Bits()[0]
	if bits <= 0 || bits > 16 {
		t.Fatalf("uniform bits = %d", bits)
	}
	exact := exactAccuracy(t, net, te, 120)
	acc := quantAccuracy(net, te, res.Allocation, o.withDefaults(te))
	if acc < exact*(1-o.RelDrop) {
		t.Fatalf("smallest uniform %d bits: accuracy %v vs exact %v", bits, acc, exact)
	}
	// One fewer bit must violate (minimality).
	if bits > 1 {
		smaller := quantAccuracy(net, te, core.Uniform(prof, bits-1), o.withDefaults(te))
		if smaller >= exact*(1-o.RelDrop) {
			t.Fatalf("%d bits also passes — %d not minimal", bits-1, bits)
		}
	}
	if res.Evaluations <= 0 {
		t.Fatal("evaluations not counted")
	}
}

func TestSmallestUniformRejectsBadOptions(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	if _, err := SmallestUniform(net, prof, te, Options{}); err == nil {
		t.Fatal("no error for RelDrop = 0")
	}
}

func TestStripesSearchImprovesOnUniform(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	o := Options{RelDrop: 0.05, EvalImages: 120}
	uni, err := SmallestUniform(net, prof, te, o)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := StripesSearch(net, prof, te, o)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy search can only lower per-layer widths, never raise them.
	ub, sb := uni.Allocation.Bits(), sr.Allocation.Bits()
	for k := range sb {
		if sb[k] > ub[k] {
			t.Fatalf("search raised layer %d: %d > %d", k, sb[k], ub[k])
		}
	}
	if sr.Allocation.TotalInputBits() > uni.Allocation.TotalInputBits() {
		t.Fatal("search did not improve total bits")
	}
	// And it must be far more expensive than the uniform binary search —
	// at least one evaluation per layer per sweep.
	if sr.Evaluations < uni.Evaluations+len(sb) {
		t.Fatalf("suspiciously few evaluations: %d", sr.Evaluations)
	}
	// The result still meets the constraint.
	exact := exactAccuracy(t, net, te, 120)
	acc := quantAccuracy(net, te, sr.Allocation, o.withDefaults(te))
	if acc < exact*(1-o.RelDrop) {
		t.Fatalf("search result violates constraint: %v", acc)
	}
}

func TestQuantizeWeightsRestores(t *testing.T) {
	net, _, te := testnet.Trained()
	before := exactAccuracy(t, net, te, 80)
	ws := weightParams(net)
	orig := append([]float64(nil), ws[0].Data...)
	restore := QuantizeWeights(net, 3)
	changed := false
	for i := range orig {
		if ws[0].Data[i] != orig[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("3-bit quantization changed nothing")
	}
	restore()
	for i := range orig {
		if ws[0].Data[i] != orig[i] {
			t.Fatal("restore incomplete")
		}
	}
	after := exactAccuracy(t, net, te, 80)
	if before != after {
		t.Fatal("accuracy changed after restore")
	}
}

func TestUniformWeightSearch(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	o := Options{RelDrop: 0.05, EvalImages: 120}
	uni, err := SmallestUniform(net, prof, te, o)
	if err != nil {
		t.Fatal(err)
	}
	w, err := UniformWeightSearch(net, uni.Allocation, te, o)
	if err != nil {
		t.Fatal(err)
	}
	if w <= 0 || w > 16 {
		t.Fatalf("weight bits = %d", w)
	}
	// Weights must have been restored.
	exact := exactAccuracy(t, net, te, 120)
	if exact < 0.7 {
		t.Fatalf("weights not restored: accuracy %v", exact)
	}
}

func TestUniformWeightSearchRejectsBadOptions(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	uni := core.Uniform(prof, 8)
	if _, err := UniformWeightSearch(net, uni, te, Options{}); err == nil {
		t.Fatal("no error for RelDrop = 0")
	}
}

// exactAccuracy is exact exec.Accuracy on one worker, failing t on error.
func exactAccuracy(t *testing.T, net *nn.Network, ds *dataset.Dataset, n int) float64 {
	t.Helper()
	acc, err := exec.Accuracy(context.Background(), 1, kernels.Policy{}, net, ds, n, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}
