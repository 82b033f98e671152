package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"mupod/internal/energy"
	"mupod/internal/exec"
	"mupod/internal/kernels"
	"mupod/internal/profile"
	"mupod/internal/search"
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

func TestFromXiBuildsConsistentAllocation(t *testing.T) {
	prof := sharedProfile(t)
	n := prof.NumLayers()
	xi := make([]float64, n)
	for i := range xi {
		xi[i] = 1 / float64(n)
	}
	a, err := FromXi(prof, 0.5, xi, "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Layers) != n {
		t.Fatalf("%d layers", len(a.Layers))
	}
	for i, l := range a.Layers {
		if l.Format.Delta() > l.Delta {
			t.Errorf("layer %d: format Δ %v exceeds tolerated %v", i, l.Format.Delta(), l.Delta)
		}
		if l.Bits != l.Format.Width() {
			t.Errorf("layer %d: Bits %d != Width %d", i, l.Bits, l.Format.Width())
		}
		if l.Inputs != prof.Layers[i].Inputs || l.MACs != prof.Layers[i].MACs {
			t.Errorf("layer %d: counts not copied", i)
		}
	}
}

func TestFromXiValidatesLength(t *testing.T) {
	prof := sharedProfile(t)
	if _, err := FromXi(prof, 0.5, []float64{1}, "t", 0); err == nil && prof.NumLayers() != 1 {
		t.Fatal("no error on ξ length mismatch")
	}
}

func TestUniformAllocation(t *testing.T) {
	prof := sharedProfile(t)
	a := Uniform(prof, 8)
	for _, l := range a.Layers {
		if l.Bits != 8 {
			t.Fatalf("uniform bits = %d", l.Bits)
		}
	}
	if math.Abs(a.EffectiveInputBits()-8) > 1e-12 || math.Abs(a.EffectiveMACBits()-8) > 1e-12 {
		t.Fatal("uniform effective bitwidths must equal the uniform width")
	}
}

func TestWithBits(t *testing.T) {
	prof := sharedProfile(t)
	bits := make([]int, prof.NumLayers())
	for i := range bits {
		bits[i] = 4 + i
	}
	a, err := WithBits(prof, bits)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range a.Layers {
		if l.Bits != bits[i] {
			t.Fatalf("layer %d bits %d", i, l.Bits)
		}
	}
	if _, err := WithBits(prof, []int{1}); err == nil && prof.NumLayers() != 1 {
		t.Fatal("no error on length mismatch")
	}
}

func TestTotalsMatchHandComputation(t *testing.T) {
	prof := sharedProfile(t)
	a := Uniform(prof, 6)
	var wantIn, wantMAC int64
	for _, l := range prof.Layers {
		wantIn += int64(l.Inputs) * 6
		wantMAC += int64(l.MACs) * 6
	}
	if a.TotalInputBits() != wantIn {
		t.Fatalf("TotalInputBits = %d, want %d", a.TotalInputBits(), wantIn)
	}
	if a.TotalMACBits() != wantMAC {
		t.Fatalf("TotalMACBits = %d, want %d", a.TotalMACBits(), wantMAC)
	}
}

func TestMACEnergyScaling(t *testing.T) {
	prof := sharedProfile(t)
	lo := Uniform(prof, 4).MACEnergy(energy.Default40nm, 8)
	hi := Uniform(prof, 12).MACEnergy(energy.Default40nm, 8)
	if lo >= hi {
		t.Fatalf("energy not increasing with bits: %v vs %v", lo, hi)
	}
}

func TestObjectiveString(t *testing.T) {
	if MinimizeInputBits.String() != "opt_for_input" ||
		MinimizeMACBits.String() != "opt_for_mac" ||
		CustomRho.String() != "custom" {
		t.Fatal("objective names drifted")
	}
}

func TestOptimizeXiCustomRhoValidation(t *testing.T) {
	prof := sharedProfile(t)
	_, _, err := OptimizeXi(context.Background(), prof, 0.5, Config{Objective: CustomRho, Rho: []float64{1}})
	if err == nil && prof.NumLayers() != 1 {
		t.Fatal("no error on custom ρ length mismatch")
	}
	if _, _, err := OptimizeXi(context.Background(), prof, 0.5, Config{Objective: Objective(99)}); err == nil {
		t.Fatal("no error on unknown objective")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	// The integration test of the paper's whole method on the fixture:
	// the returned allocation must satisfy the accuracy constraint under
	// REAL quantized inference, and the two objectives must order their
	// own metrics correctly.
	net, _, te := testnet.Trained()
	cfg := Config{
		Profile: profile.Config{Images: 16, Points: 8, Seed: 5},
		Search:  search.Options{Scheme: search.Scheme1Uniform, RelDrop: 0.05, EvalImages: 120, Seed: 7},
	}

	cfg.Objective = MinimizeInputBits
	resIn, err := Run(net, te, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Objective = MinimizeMACBits
	resMAC, err := Run(net, te, cfg)
	if err != nil {
		t.Fatal(err)
	}

	exact, err := exec.Accuracy(context.Background(), 1, kernels.Policy{}, net, te, 0, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{resIn, resMAC} {
		acc := res.Allocation.Validate(net, te, 0)
		if acc < exact*(1-0.05)-0.02 { // small slack for eval-set change
			t.Errorf("%s: quantized accuracy %v vs exact %v violates 5%% constraint",
				res.Allocation.Objective, acc, exact)
		}
	}

	// Each objective must win (or tie) its own metric. The continuous
	// optimum is rounded to integer bitwidths, which can shift either
	// metric by up to a fraction of a bit — allow that granularity.
	const roundSlack = 0.15
	if resIn.Allocation.EffectiveInputBits() > resMAC.Allocation.EffectiveInputBits()+roundSlack {
		t.Errorf("opt_for_input lost its own metric: %v vs %v",
			resIn.Allocation.EffectiveInputBits(), resMAC.Allocation.EffectiveInputBits())
	}
	if resMAC.Allocation.EffectiveMACBits() > resIn.Allocation.EffectiveMACBits()+roundSlack {
		t.Errorf("opt_for_mac lost its own metric: %v vs %v",
			resMAC.Allocation.EffectiveMACBits(), resIn.Allocation.EffectiveMACBits())
	}

	if resIn.ProfileTime <= 0 || resIn.SearchTime <= 0 || resIn.SolveTime <= 0 {
		t.Error("timings not recorded")
	}
}

func TestOptimizedBeatsUniformAtSameSigma(t *testing.T) {
	// With the same σ budget, the optimizer's weighted total bits must
	// not exceed the equal-split allocation's (Table II's claim).
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	_ = net
	sigma := 0.8
	xiOpt, _, err := OptimizeXi(context.Background(), prof, sigma, Config{Objective: MinimizeInputBits})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := FromXi(prof, sigma, xiOpt, "opt", 0)
	if err != nil {
		t.Fatal(err)
	}
	n := prof.NumLayers()
	eq := make([]float64, n)
	for i := range eq {
		eq[i] = 1 / float64(n)
	}
	equal, err := FromXi(prof, sigma, eq, "equal", 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalInputBits() > equal.TotalInputBits() {
		t.Fatalf("optimized %d input bits > equal scheme %d", opt.TotalInputBits(), equal.TotalInputBits())
	}
	_ = te
}

func TestRunContextCancelled(t *testing.T) {
	net, _, te := testnet.Trained()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, net, te, Config{
		Profile: profile.Config{Images: 8, Points: 5, Seed: 1},
		Search:  search.Options{RelDrop: 0.05, EvalImages: 40, Seed: 1},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
