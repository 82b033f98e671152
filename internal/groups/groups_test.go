package groups

import (
	"context"
	"sync"
	"testing"

	"mupod/internal/exec"
	"mupod/internal/kernels"
	"mupod/internal/profile"
	"mupod/internal/search"
	"mupod/internal/testnet"
)

var (
	fixOnce sync.Once
	gProf   *Profile
	lProf   *profile.Profile
)

func fixtures(t *testing.T) (*Profile, *profile.Profile) {
	t.Helper()
	fixOnce.Do(func() {
		net, _, te := testnet.Trained()
		pc := profile.Config{Images: 16, Points: 8, Seed: 5}
		if p, err := Run(net, te, Config{Groups: 2, Profile: pc}); err == nil {
			gProf = p
		}
		if p, err := profile.Run(net, te, pc); err == nil {
			lProf = p
		}
	})
	if gProf == nil || lProf == nil {
		t.Fatal("fixtures unavailable")
	}
	return gProf, lProf
}

func TestRunProducesGroupsPerLayer(t *testing.T) {
	gp, _ := fixtures(t)
	net, _, _ := testnet.Trained()
	// testnet: conv1 input has 3 channels → 2 groups; conv2 8ch → 2;
	// conv3 12ch → 2; fc (2-D, 48 features) → 2. Total 8 sources.
	if gp.NumSources() != 2*len(net.AnalyzableNodes()) {
		t.Fatalf("%d sources for %d layers", gp.NumSources(), len(net.AnalyzableNodes()))
	}
	for _, g := range gp.Groups {
		if g.Lambda <= 0 {
			t.Errorf("%s: λ = %v", g.Name, g.Lambda)
		}
		if g.R2 < 0.7 {
			t.Errorf("%s: R² = %v", g.Name, g.R2)
		}
		if g.LoChan >= g.HiChan {
			t.Errorf("%s: empty channel range [%d,%d)", g.Name, g.LoChan, g.HiChan)
		}
		if g.Inputs <= 0 {
			t.Errorf("%s: no input elements", g.Name)
		}
	}
}

func TestGroupInputsSumToLayerInputs(t *testing.T) {
	gp, lp := fixtures(t)
	perNode := map[int]int{}
	for _, g := range gp.Groups {
		perNode[g.NodeID] += g.Inputs
	}
	for _, l := range lp.Layers {
		if perNode[l.NodeID] != l.Inputs {
			t.Errorf("node %d: group inputs %d != layer inputs %d", l.NodeID, perNode[l.NodeID], l.Inputs)
		}
	}
}

func TestAllocateAndValidate(t *testing.T) {
	net, _, te := testnet.Trained()
	gp, lp := fixtures(t)

	sr, err := search.Run(net, lp, te, search.Options{
		Scheme: search.Scheme1Uniform, RelDrop: 0.05, EvalImages: 120, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := Allocate(gp, sr.SigmaYL*0.8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Groups) != gp.NumSources() {
		t.Fatalf("%d allocations", len(alloc.Groups))
	}
	var xiSum float64
	for _, g := range alloc.Groups {
		xiSum += g.Xi
		if g.Format.Delta() > g.Delta {
			t.Fatalf("%s: format Δ exceeds tolerance", g.Name)
		}
	}
	if xiSum < 0.99 || xiSum > 1.01 {
		t.Fatalf("Σξ = %v", xiSum)
	}

	exact, err := exec.Accuracy(context.Background(), 1, kernels.Policy{}, net, te, 0, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	acc := Validate(net, te, 0, alloc)
	if acc < exact*(1-0.05)-0.03 {
		t.Fatalf("group-quantized accuracy %v vs exact %v", acc, exact)
	}
	if alloc.TotalInputBits() <= 0 || alloc.EffectiveInputBits() <= 0 {
		t.Fatal("accounting broken")
	}
}

// TestGroupsExploitRangeDifferences: per-group integer bits must differ
// somewhere (that's the finer-granularity payoff); if every group of
// every layer had the same range, the extension would be pointless on
// this fixture.
func TestGroupsExploitRangeDifferences(t *testing.T) {
	gp, _ := fixtures(t)
	byNode := map[int][]GroupProfile{}
	for _, g := range gp.Groups {
		byNode[g.NodeID] = append(byNode[g.NodeID], g)
	}
	diffs := 0
	for _, gs := range byNode {
		for i := 1; i < len(gs); i++ {
			if gs[i].IntBits != gs[0].IntBits {
				diffs++
			}
		}
	}
	if diffs == 0 {
		t.Log("note: all groups share integer bits on this fixture (ranges are homogeneous)")
	}
}

func TestAllocateEmptyProfile(t *testing.T) {
	if _, err := Allocate(&Profile{}, 1, 0); err == nil {
		t.Fatal("no error on empty profile")
	}
}

func TestRunErrorsOnTooFewImages(t *testing.T) {
	net, _, te := testnet.Trained()
	if _, err := Run(net, te, Config{Profile: profile.Config{Images: te.Len() + 1}}); err == nil {
		t.Fatal("no error on oversized image budget")
	}
}

func TestMoreGroupsNeverHurtTotalBits(t *testing.T) {
	// At the same σ, splitting layers into more groups can only give
	// the optimizer more freedom: the 4-group total must not exceed the
	// 1-group total by more than rounding slack.
	net, _, te := testnet.Trained()
	pc := profile.Config{Images: 16, Points: 8, Seed: 5}
	one, err := Run(net, te, Config{Groups: 1, Profile: pc})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(net, te, Config{Groups: 4, Profile: pc})
	if err != nil {
		t.Fatal(err)
	}
	const sigma = 0.8
	a1, err := Allocate(one, sigma, 0)
	if err != nil {
		t.Fatal(err)
	}
	a4, err := Allocate(four, sigma, 0)
	if err != nil {
		t.Fatal(err)
	}
	slack := int64(float64(a1.TotalInputBits()) * 0.15) // integer rounding + per-group noise
	if a4.TotalInputBits() > a1.TotalInputBits()+slack {
		t.Fatalf("4 groups used %d bits vs 1 group %d", a4.TotalInputBits(), a1.TotalInputBits())
	}
}
