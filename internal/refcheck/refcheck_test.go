package refcheck

import (
	"context"
	"math"
	"testing"

	"mupod/internal/exec"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/optimize"
	"mupod/internal/profile"
	"mupod/internal/rng"
	"mupod/internal/search"
	"mupod/internal/tensor"
	"mupod/internal/testnet"
)

func randTensor(r *rng.RNG, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = r.Uniform(-1.5, 1.5)
	}
	return x
}

// The reference network forward must agree with the allocating nn path
// and the pooled exec path on every zoo fixture, exact and with an
// injection at every analyzable node — this is the differential test
// the whole package exists for.
func TestReferenceMatchesFastPathsOverZoo(t *testing.T) {
	// A position-keyed bump keeps the injected noise identical on both
	// sides whatever values the two paths compute.
	bump := func(dst, src *tensor.Tensor) {
		for i, v := range src.Data {
			dst.Data[i] = v + 0.01*float64(i%3-1)
		}
	}
	for _, f := range testnet.Zoo() {
		x := f.Test.Batch(0, 24)
		plan := map[int]nn.Injector{}
		for _, id := range f.Net.AnalyzableNodes() {
			plan[id] = bump
		}
		acts := f.Net.ForwardAll(x)
		sess := exec.NewSession(exec.NewPlan(f.Net))
		for _, tc := range []struct {
			name      string
			fast, ref *tensor.Tensor
		}{
			{"nn.ForwardAll", acts[len(acts)-1], ForwardNetwork(f.Net, x, nil)},
			{"exec Forward", sess.Forward(x, nil).Clone(), ForwardNetwork(f.Net, x, nil)},
			{"injected exec Forward", sess.Forward(x, plan), ForwardNetwork(f.Net, x, plan)},
		} {
			diff, err := CompareTensors(tc.fast, tc.ref)
			if err != nil {
				t.Fatalf("%s %s: %v", f.Name, tc.name, err)
			}
			if diff > ForwardTol {
				t.Errorf("%s: %s diverges from reference by %g", f.Name, tc.name, diff)
			}
		}
	}
}

// The full selfcheck sweep must pass on every zoo network at workers=1
// and workers=N — the acceptance criterion of the subsystem.
func TestSelfCheckPassesOnZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep profiles and searches every fixture")
	}
	rep, err := Run(context.Background(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Failed() {
		t.Errorf("%s/%s: %v", c.Net, c.Name, c.Err)
	}
	if len(rep.Checks) < 20 {
		t.Fatalf("only %d checks ran; the sweep is not covering the zoo", len(rep.Checks))
	}
}

// Every registered kernel backend's conv must match the naive
// reference loops; switching backends must not change which answer is
// right.
func TestConvPathsAgainstReference(t *testing.T) {
	r := rng.New(3)
	c := nn.NewConv2D(3, 5, 3, 2, 1)
	c.InitHe(r, 1)
	x := randTensor(r, 2, 3, 9, 9)
	ref := convRef(c, x)
	for _, name := range kernels.Names() {
		be := kernels.MustNew(kernels.Policy{Impl: name, IntraWorkers: 3})
		got := tensor.New(c.OutShape([][]int{x.Shape})...)
		c.ForwardIntoOn(be, []*tensor.Tensor{x}, got, nil)
		diff, err := CompareTensors(got, ref)
		if err != nil {
			t.Fatal(err)
		}
		if diff > ForwardTol {
			t.Errorf("backend %s: diverges from reference by %g", name, diff)
		}
	}
}

func TestMatMulRefKnownProduct(t *testing.T) {
	// [1 2; 3 4] × [5 6; 7 8] = [19 22; 43 50]
	got := MatMulRef(2, 2, 2, []float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MatMulRef = %v, want %v", got, want)
		}
	}
}

// The reference quantizer and the fast one must agree on adversarial
// inputs for every format class, including the ones the satellite fix
// repaired (NaN/Inf, negative F, degenerate widths).
func TestQuantizerDifferential(t *testing.T) {
	for _, f := range quantizerFormats {
		if err := CheckQuantizer(f, quantizerSamples(f)); err != nil {
			t.Error(err)
		}
	}
}

func TestFormatRoundTripsIncludingNegativeF(t *testing.T) {
	for fb := -16; fb <= 30; fb++ {
		if err := CheckFormatRoundTrip(fb); err != nil {
			t.Error(err)
		}
	}
}

func TestSigmaIdentitySweep(t *testing.T) {
	for _, d := range []float64{1e-12, 1e-3, 1.0 / 3, 1, math.Pi, 1e9} {
		if err := CheckSigmaIdentity(d); err != nil {
			t.Error(err)
		}
	}
}

func TestCheckSimplexCatchesViolations(t *testing.T) {
	if err := CheckSimplex([]float64{0.5, 0.5}, nil); err != nil {
		t.Errorf("exact simplex rejected: %v", err)
	}
	if err := CheckSimplex([]float64{0.5, 0.5 + 1e-9}, nil); err == nil {
		t.Error("1e-9 budget violation not caught")
	}
	if err := CheckSimplex([]float64{0.7, 0.3}, func(int) float64 { return 0.4 }); err == nil {
		t.Error("lower-bound violation not caught")
	}
}

// GridSolve must find the optimum of a problem whose optimum lies on the
// grid, Solve must match it to rounding, and both oracles must reject a
// clearly suboptimal point.
func TestGridSolveAgainstClosedForm(t *testing.T) {
	p := &quadProblem{w: []float64{1, 1, 1}, c: []float64{0.2, 0.3, 0.5}}
	xi, val, err := GridSolve(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.2, 0.3, 0.5}
	for k := range want {
		if math.Abs(xi[k]-want[k]) > 1e-12 {
			t.Fatalf("grid optimum %v (value %g), want %v", xi, val, want)
		}
	}
	sol, _, err := optimize.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSolverBeatsGrid(p, sol, 10, 1e-9); err != nil {
		t.Fatal(err)
	}
	if err := CheckNoDescentMove(p, sol, 1e-7); err != nil {
		t.Fatal(err)
	}
	// A deliberately bad point must fail both oracle checks.
	bad := []float64{1, 0, 0}
	if err := CheckSolverBeatsGrid(p, bad, 10, 1e-9); err == nil {
		t.Fatal("grid oracle accepted a clearly suboptimal point")
	}
	if err := CheckNoDescentMove(p, bad, 1e-7); err == nil {
		t.Fatal("first-order oracle accepted a clearly suboptimal point")
	}
}

// TestAllowanceScalesWithCancellingTerms: at σ_YŁ = 4 source 0's Δ
// exceeds 1, so its Eq. 8 term is negative and nearly cancels source
// 1's. |value| then falls below the rounding of a single term: the
// allowance ValueTol·|value| is under half an ulp of the largest term,
// so it cannot hold the rounding of a correct solve, while Allowance,
// scaled by Σ|terms|, holds several ulps. The checks pass on the
// solver's ξ and still refuse a point off the optimum.
func TestAllowanceScalesWithCancellingTerms(t *testing.T) {
	prof := &profile.Profile{Layers: []profile.LayerProfile{{Lambda: 1}, {Lambda: 1.0 / 64}}}
	obj, err := optimize.NewBitObjective(prof, 4, []float64{1000, 358.597}, 0)
	if err != nil {
		t.Fatal(err)
	}
	xi, _, err := optimize.Solve(context.Background(), obj)
	if err != nil {
		t.Fatal(err)
	}
	if d := obj.Delta(0, xi[0]); d <= 1 {
		t.Fatalf("Δ_0 = %g; the fixture needs a Δ above 1", d)
	}
	v := obj.Value(xi)
	largest := 0.0
	for k := range xi {
		largest = max(largest, math.Abs(obj.Rho[k]*math.Log2(obj.Delta(k, xi[k]))))
	}
	ulp := math.Nextafter(largest, math.Inf(1)) - largest
	if old := ValueTol * math.Abs(v); old >= ulp/2 {
		t.Fatalf("ValueTol·|value| = %g is not below half an ulp (%g) of the largest term %g; the terms do not cancel", old, ulp/2, largest)
	}
	if a := Allowance(obj, xi); a < 4*ulp {
		t.Fatalf("Allowance %g is under 4 ulps (%g) of the largest term %g", a, 4*ulp, largest)
	}
	if err := CheckNoDescentMove(obj, xi, oracleEps); err != nil {
		t.Fatal(err)
	}
	if err := CheckSolverBeatsGrid(obj, xi, 20, Allowance(obj, xi)); err != nil {
		t.Fatal(err)
	}
	off := []float64{xi[0] - 0.05, xi[1] + 0.05}
	if err := CheckNoDescentMove(obj, off, oracleEps); err == nil {
		t.Fatal("first-order oracle accepted a point 0.05 off the optimum")
	}
}

func TestGridSolveInfeasibleResolution(t *testing.T) {
	p := &quadProblem{w: []float64{1, 1}, c: []float64{0.5, 0.5}, lb: 0.45}
	// Resolution 1/3 has no point with both coordinates ≥ 0.45.
	if _, _, err := GridSolve(p, 3); err == nil {
		t.Fatal("no error for an infeasible grid resolution")
	}
}

func TestCheckSearchTraceInvariants(t *testing.T) {
	good := &search.Result{
		SigmaYL: 0.5, TargetAcc: 0.9, Evaluations: 3,
		Trace: []search.Probe{
			{Sigma: 1, Accuracy: 0.5, Pass: false},
			{Sigma: 0.5, Accuracy: 0.95, Pass: true},
			{Sigma: 0.75, Accuracy: 0.6, Pass: false},
		},
	}
	if err := CheckSearchTrace(good, 0.25); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	bad := *good
	bad.SigmaYL = 0.4 // not the largest passing probe
	if err := CheckSearchTrace(&bad, 0.25); err == nil {
		t.Error("σ_YŁ ≠ max passing probe not caught")
	}
	wide := *good
	wide.Trace = []search.Probe{
		{Sigma: 0.5, Accuracy: 0.95, Pass: true},
		{Sigma: 2, Accuracy: 0.5, Pass: false},
	}
	wide.Evaluations = 2
	if err := CheckSearchTrace(&wide, 0.25); err == nil {
		t.Error("unconverged bracket not caught")
	}
}

// quadProblem is a small separable quadratic for grid/solver tests.
type quadProblem struct {
	w, c []float64
	lb   float64
}

func (q *quadProblem) Dim() int               { return len(q.w) }
func (q *quadProblem) LowerBound(int) float64 { return q.lb }
func (q *quadProblem) Value(xi []float64) float64 {
	s := 0.0
	for k := range xi {
		d := xi[k] - q.c[k]
		s += q.w[k] * d * d
	}
	return s
}
func (q *quadProblem) XiAt(k int, mu float64) float64 {
	return math.Max(q.lb, q.c[k]-mu/(2*q.w[k]))
}
