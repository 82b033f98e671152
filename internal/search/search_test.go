package search

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"mupod/internal/exec"
	"mupod/internal/kernels"
	"mupod/internal/obs"
	"mupod/internal/profile"
	"mupod/internal/rng"
	"mupod/internal/testnet"
)

var (
	profOnce sync.Once
	profMemo *profile.Profile
)

// sharedProfile profiles the testnet once for the whole package.
func sharedProfile(t *testing.T) *profile.Profile {
	t.Helper()
	profOnce.Do(func() {
		net, _, te := testnet.Trained()
		p, err := profile.Run(net, te, profile.Config{Images: 16, Points: 8, Seed: 5})
		if err != nil {
			t.Fatalf("profiling fixture: %v", err)
		}
		profMemo = p
	})
	if profMemo == nil {
		t.Fatal("profile fixture unavailable")
	}
	return profMemo
}

func TestAccuracyNoInjectionMatchesExact(t *testing.T) {
	net, _, te := testnet.Trained()
	acc, err := exec.Accuracy(context.Background(), 1, kernels.Policy{}, net, te, 0, 32, nil)
	if err != nil || acc < 0.7 {
		t.Fatalf("trained fixture accuracy %v (err %v)", acc, err)
	}
	// Subset evaluation stays in range.
	sub, err := exec.Accuracy(context.Background(), 1, kernels.Policy{}, net, te, 50, 16, nil)
	if err != nil || sub < 0 || sub > 1 {
		t.Fatalf("subset accuracy %v (err %v)", sub, err)
	}
}

func TestAccuracyMonotoneInSigmaScheme2(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	opts := Options{Scheme: Scheme2Gaussian, EvalImages: te.Len(), Repeats: 3, Seed: 1}
	prev := 1.1
	violations := 0
	for _, acc := range EvaluateSigmas(net, prof, te, []float64{0.1, 1, 4, 16, 64}, opts) {
		if acc > prev+0.03 { // allow tiny evaluation noise
			violations++
		}
		prev = acc
	}
	if violations > 0 {
		t.Fatalf("accuracy not monotone decreasing in σ (%d violations)", violations)
	}
}

func TestSchemesAgreeQualitatively(t *testing.T) {
	// At tiny σ both schemes report near-exact accuracy; at huge σ both
	// report near-chance accuracy.
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	for _, scheme := range []Scheme{Scheme1Uniform, Scheme2Gaussian} {
		opts := Options{Scheme: scheme, EvalImages: 120, Seed: 2}
		accs := EvaluateSigmas(net, prof, te, []float64{1e-4, 256}, opts)
		hi, lo := accs[0], accs[1]
		if hi < 0.7 {
			t.Errorf("%v: accuracy at tiny σ = %v", scheme, hi)
		}
		if lo > 0.45 {
			t.Errorf("%v: accuracy at huge σ = %v (should approach chance)", scheme, lo)
		}
	}
}

func TestRunFindsSigmaWithinConstraint(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	for _, scheme := range []Scheme{Scheme1Uniform, Scheme2Gaussian} {
		res, err := Run(net, prof, te, Options{
			Scheme: scheme, RelDrop: 0.05, EvalImages: 120, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if res.SigmaYL <= 0 {
			t.Fatalf("%v: σ = %v", scheme, res.SigmaYL)
		}
		// The found σ must satisfy the constraint when re-evaluated.
		acc := EvaluateSigmas(net, prof, te, []float64{res.SigmaYL}, Options{
			Scheme: scheme, EvalImages: 120, Seed: 4,
		})[0]
		if acc < res.TargetAcc-0.05 {
			t.Fatalf("%v: σ=%v gives %v, target %v", scheme, res.SigmaYL, acc, res.TargetAcc)
		}
		if res.Evaluations != len(res.Trace) {
			t.Fatalf("trace/evaluation mismatch %d/%d", res.Evaluations, len(res.Trace))
		}
	}
}

// TestScheme2ForwardsOncePerSearch: Scheme 2 probes perturb the exact
// logits the search kept, so a whole search runs ⌈EvalImages/BatchSize⌉
// forward passes however many probes it makes.
func TestScheme2ForwardsOncePerSearch(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	m := exec.EnableMetrics(obs.NewRegistry())
	defer exec.DisableMetrics()
	res, err := Run(net, prof, te, Options{Scheme: Scheme2Gaussian, RelDrop: 0.05, EvalImages: 100, BatchSize: 32, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations < 2 {
		t.Fatalf("only %d probes; the test needs several", res.Evaluations)
	}
	if got := m.Forwards.Value(); got != 4 {
		t.Fatalf("%d forward passes for %d probes, want 4 (one per eval batch)", got, res.Evaluations)
	}
}

// TestEvaluateSigmasSharesOneExactPass: a 3-σ Scheme 2 call runs
// ⌈EvalImages/BatchSize⌉ forward passes, one exact pass for all three
// σs, and each value equals that σ evaluated alone, as under Scheme 1.
func TestEvaluateSigmasSharesOneExactPass(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	sigmas := []float64{0.5, 2, 8}
	for _, scheme := range []Scheme{Scheme1Uniform, Scheme2Gaussian} {
		opts := Options{Scheme: scheme, EvalImages: 100, BatchSize: 32, Repeats: 2, Seed: 7, Workers: 2}
		m := exec.EnableMetrics(obs.NewRegistry())
		accs := EvaluateSigmas(net, prof, te, sigmas, opts)
		forwards := m.Forwards.Value()
		exec.DisableMetrics()
		if scheme == Scheme2Gaussian && forwards != 4 {
			t.Fatalf("%v: %d forward passes for %d σs, want 4 (one per eval batch)", scheme, forwards, len(sigmas))
		}
		for i, sigma := range sigmas {
			if alone := EvaluateSigmas(net, prof, te, []float64{sigma}, opts)[0]; math.Float64bits(alone) != math.Float64bits(accs[i]) {
				t.Fatalf("%v σ=%v: %v in a 3-σ call, %v alone", scheme, sigma, accs[i], alone)
			}
		}
	}
}

func TestRunTighterConstraintGivesSmallerSigma(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	tight, err := Run(net, prof, te, Options{Scheme: Scheme2Gaussian, RelDrop: 0.01, EvalImages: 200, Repeats: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Run(net, prof, te, Options{Scheme: Scheme2Gaussian, RelDrop: 0.10, EvalImages: 200, Repeats: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tight.SigmaYL > loose.SigmaYL {
		t.Fatalf("σ(1%%)=%v > σ(10%%)=%v", tight.SigmaYL, loose.SigmaYL)
	}
}

func TestRunRejectsNonPositiveRelDrop(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	for _, scheme := range []Scheme{Scheme1Uniform, Scheme2Gaussian} {
		for _, drop := range []float64{0, -0.05} {
			_, err := Run(net, prof, te, Options{Scheme: scheme, RelDrop: drop})
			if !errors.Is(err, ErrZeroConstraint) {
				t.Fatalf("%v RelDrop=%g: err = %v, want ErrZeroConstraint", scheme, drop, err)
			}
		}
	}
}

// An effectively-zero accuracy budget must surface ErrUnattainable, not
// the silent σ=0 endpoint. InitUpper == Tol makes the search terminate
// after the single (failing) upper-bound probe, so lo is still 0.
func TestRunUnattainableConstraint(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	for _, scheme := range []Scheme{Scheme1Uniform, Scheme2Gaussian} {
		res, err := Run(net, prof, te, Options{
			Scheme: scheme, RelDrop: 1e-12, EvalImages: 80, Seed: 6,
			InitUpper: 64, Tol: 64,
		})
		if !errors.Is(err, ErrUnattainable) {
			t.Fatalf("%v: err = %v (res %+v), want ErrUnattainable", scheme, err, res)
		}
	}
}

// RelDrop = 1 sets the accuracy target to zero, which every probe
// satisfies no matter how large σ grows; the search must surface
// ErrVacuous instead of the max-doubling endpoint.
func TestRunVacuousConstraint(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	for _, scheme := range []Scheme{Scheme1Uniform, Scheme2Gaussian} {
		res, err := Run(net, prof, te, Options{
			Scheme: scheme, RelDrop: 1, EvalImages: 40, Seed: 7,
		})
		if !errors.Is(err, ErrVacuous) {
			t.Fatalf("%v: err = %v (res %+v), want ErrVacuous", scheme, err, res)
		}
	}
}

func TestScheme1PlanSkipsNonPositiveDelta(t *testing.T) {
	p := &profile.Profile{Layers: []profile.LayerProfile{
		{NodeID: 1, Lambda: 1, Theta: 0},
		{NodeID: 2, Lambda: 0.001, Theta: -1}, // Δ < 0 at small σ
	}}
	plan := Scheme1Plan(p, 0.1, rng.New(1))
	if _, ok := plan[1]; !ok {
		t.Fatal("layer 1 missing from plan")
	}
	if _, ok := plan[2]; ok {
		t.Fatal("non-positive Δ layer must be skipped")
	}
}

func TestXiPlanValidatesLength(t *testing.T) {
	p := &profile.Profile{Layers: []profile.LayerProfile{{NodeID: 1, Lambda: 1}}}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on ξ length mismatch")
		}
	}()
	XiPlan(p, 1, []float64{0.5, 0.5}, rng.New(1))
}

func TestSchemeString(t *testing.T) {
	if Scheme1Uniform.String() != "equal_scheme" || Scheme2Gaussian.String() != "gaussian_approx" {
		t.Fatal("scheme names drifted from the paper's")
	}
}

func TestRunContextCancelled(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, net, prof, te, Options{RelDrop: 0.05, EvalImages: 40, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
