package fxnet

import (
	"context"
	"math"
	"sync"
	"testing"

	"mupod/internal/baseline"
	"mupod/internal/core"
	"mupod/internal/exec"
	"mupod/internal/fixedpoint"
	"mupod/internal/kernels"
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
		if p, err := profile.Run(net, te, profile.Config{Images: 16, Points: 8, Seed: 5}); err == nil {
			fixProf = p
		}
	})
	if fixProf == nil {
		t.Fatal("profile fixture unavailable")
	}
	return fixProf
}

// TestIntegerMatchesFloatSimulation is the methodology cross-check: the
// integer datapath and the float-simulated quantization (quantized
// inputs AND quantized weights, float accumulation) must produce
// bit-identical logits, because every product of grid values is exactly
// representable in float64 at these widths.
func TestIntegerMatchesFloatSimulation(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	alloc := core.Uniform(prof, 8)
	const wBits = 8

	batch := te.Batch(0, 16)

	// Float-simulated: quantize weights in place, inject input
	// quantization, ordinary float forward.
	restore := baseline.QuantizeWeights(net, wBits)
	floatOut := exec.NewSession(exec.NewPlan(net)).Forward(batch, alloc.InjectionPlan())
	restore()

	intOut, rep, err := Run(net, alloc, Config{WeightBits: wBits}, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range floatOut.Data {
		if d := math.Abs(floatOut.Data[i] - intOut.Data[i]); d > 1e-9 {
			t.Fatalf("logit %d differs: float-sim %v vs integer %v", i, floatOut.Data[i], intOut.Data[i])
		}
	}
	if len(rep.Layers) != len(alloc.Layers) {
		t.Fatalf("%d layer reports", len(rep.Layers))
	}
}

func TestAccumulatorReport(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	alloc := core.Uniform(prof, 8)
	_, rep, err := Run(net, alloc, Config{WeightBits: 8}, te.Batch(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range rep.Layers {
		if l.MaxAccMagnitude <= 0 {
			t.Errorf("%s: empty accumulator audit", l.Name)
		}
		if l.AccumulatorBits <= l.InputFormat.Width() {
			t.Errorf("%s: accumulator (%d bits) narrower than inputs (%d)", l.Name, l.AccumulatorBits, l.InputFormat.Width())
		}
		// int64 must never have been at risk.
		if l.AccumulatorBits > 62 {
			t.Errorf("%s: accumulator near overflow (%d bits)", l.Name, l.AccumulatorBits)
		}
	}
	if rep.MaxAccumulatorBits() <= 0 {
		t.Fatal("max accumulator bits missing")
	}
}

func TestWiderFormatsNeedWiderAccumulators(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	batch := te.Batch(0, 8)
	_, narrow, err := Run(net, core.Uniform(prof, 4), Config{WeightBits: 4}, batch)
	if err != nil {
		t.Fatal(err)
	}
	_, wide, err := Run(net, core.Uniform(prof, 12), Config{WeightBits: 12}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if wide.MaxAccumulatorBits() <= narrow.MaxAccumulatorBits() {
		t.Fatalf("accumulator bits: wide %d ≤ narrow %d",
			wide.MaxAccumulatorBits(), narrow.MaxAccumulatorBits())
	}
}

func TestAccuracyIntegerPath(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	alloc := core.Uniform(prof, 10)
	acc, rep, err := Accuracy(net, alloc, Config{WeightBits: 10}, te.Batch(0, 120), te.Labels[:120], 32)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := exec.Accuracy(context.Background(), 1, kernels.Policy{}, net, te, 120, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc < exact-0.05 {
		t.Fatalf("10-bit integer inference accuracy %v vs exact %v", acc, exact)
	}
	if len(rep.Layers) != len(alloc.Layers) {
		t.Fatalf("merged report has %d layers", len(rep.Layers))
	}
}

func TestPerLayerWeightFormats(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	alloc := core.Uniform(prof, 8)
	wf := make([]fixedpoint.Format, len(alloc.Layers))
	for i := range wf {
		wf[i] = fixedpoint.Format{IntBits: 1, FracBits: 6 + i}
	}
	_, rep, err := Run(net, alloc, Config{WeightFormats: wf}, te.Batch(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range rep.Layers {
		if l.WeightFormat != wf[i] {
			t.Fatalf("layer %d used %v, want %v", i, l.WeightFormat, wf[i])
		}
	}
}

func TestRunValidation(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	alloc := core.Uniform(prof, 8)
	if _, _, err := Run(net, &core.Allocation{}, Config{WeightBits: 8}, te.Batch(0, 1)); err == nil {
		t.Fatal("no error on empty allocation")
	}
	if _, _, err := Run(net, alloc, Config{}, te.Batch(0, 1)); err == nil {
		t.Fatal("no error on missing weight bits")
	}
	if _, _, err := Run(net, alloc, Config{WeightFormats: []fixedpoint.Format{{IntBits: 1, FracBits: 3}}}, te.Batch(0, 1)); err == nil {
		t.Fatal("no error on weight-format length mismatch")
	}
	if _, _, err := Accuracy(net, alloc, Config{WeightBits: 8}, te.Batch(0, 4), te.Labels[:3], 2); err == nil {
		t.Fatal("no error on label mismatch")
	}
}
