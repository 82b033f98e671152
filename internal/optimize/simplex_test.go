package optimize

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mupod/internal/rng"
)

// quadratic is a simple separable convex test problem:
// F(ξ) = Σ w_K (ξ_K − c_K)².
type quadratic struct {
	w, c, lb []float64
}

func (q *quadratic) Dim() int                 { return len(q.w) }
func (q *quadratic) LowerBound(k int) float64 { return q.lb[k] }
func (q *quadratic) Value(xi []float64) float64 {
	s := 0.0
	for k := range xi {
		d := xi[k] - q.c[k]
		s += q.w[k] * d * d
	}
	return s
}
func (q *quadratic) XiAt(k int, mu float64) float64 {
	return math.Max(q.lb[k], q.c[k]-mu/(2*q.w[k]))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func checkSimplex(t *testing.T, xi, lb []float64) {
	t.Helper()
	if math.Abs(sum(xi)-1) > 1e-9 {
		t.Fatalf("Σξ = %v", sum(xi))
	}
	for k, x := range xi {
		if x < lb[k]-1e-12 {
			t.Fatalf("ξ[%d] = %v below bound %v", k, x, lb[k])
		}
	}
}

// Solve returns an interior optimum, whose multiplier is 0, to
// rounding.
func TestNewtonKKTQuadraticInterior(t *testing.T) {
	// Equal weights, centers summing to 1: optimum is exactly c.
	q := &quadratic{
		w:  []float64{1, 1, 1},
		c:  []float64{0.2, 0.3, 0.5},
		lb: []float64{0, 0, 0},
	}
	xi, st, err := Solve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	checkSimplex(t, xi, q.lb)
	for k := range xi {
		if math.Abs(xi[k]-q.c[k]) > 1e-12 {
			t.Fatalf("ξ = %v, want %v (stats %+v)", xi, q.c, st)
		}
	}
}

// kahanSum measures Σxs with compensated summation so the measurement
// itself does not contribute the O(n·ulp) error under test.
func kahanSum(xs []float64) float64 {
	var s, comp float64
	for _, x := range xs {
		y := x - comp
		t := s + y
		comp = (t - s) - y
		s = t
	}
	return s
}

// The Eq. 6 budget constraint: Σξ_K = 1 must hold to well within 1e-12
// after Solve finishes, at realistic and exaggerated depths. Plain
// summation leaves a drift that grows with dimension, so this pins the
// exact-normalization path.
func TestSolversSimplexSumExactDeepNets(t *testing.T) {
	const tol = 1e-15
	r := rng.New(7)
	for _, n := range []int{16, 156, 500, 2000} {
		q := &quadratic{
			w:  make([]float64, n),
			c:  make([]float64, n),
			lb: make([]float64, n),
		}
		for k := 0; k < n; k++ {
			q.w[k] = r.Uniform(0.5, 4)
			q.c[k] = r.Uniform(0, 2.0/float64(n))
			q.lb[k] = r.Uniform(0, 0.2/float64(n))
		}
		xi, _, err := Solve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(kahanSum(xi) - 1); d > tol {
			t.Errorf("n=%d: |Σξ−1| = %g > %g", n, d, tol)
		}
	}
}

func TestInfeasibleBounds(t *testing.T) {
	q := &quadratic{
		w:  []float64{1, 1},
		c:  []float64{0.5, 0.5},
		lb: []float64{0.7, 0.7},
	}
	if _, _, err := Solve(context.Background(), q); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestProjectSimplexKnownCases(t *testing.T) {
	v := []float64{0.5, 0.5, 0.5}
	ProjectSimplexLB(v, []float64{0, 0, 0})
	for _, x := range v {
		if math.Abs(x-1.0/3) > 1e-12 {
			t.Fatalf("projection = %v", v)
		}
	}
	// A point already on the simplex is unchanged.
	v = []float64{0.2, 0.3, 0.5}
	ProjectSimplexLB(v, []float64{0, 0, 0})
	want := []float64{0.2, 0.3, 0.5}
	for i := range v {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("projection moved simplex point: %v", v)
		}
	}
	// Dominant coordinate collapses to a vertex.
	v = []float64{10, 0, 0}
	ProjectSimplexLB(v, []float64{0, 0, 0})
	if v[0] != 1 || v[1] != 0 || v[2] != 0 {
		t.Fatalf("projection = %v", v)
	}
}

func TestProjectSimplexRespectsLowerBounds(t *testing.T) {
	v := []float64{-5, 0.9, 0.9}
	lb := []float64{0.2, 0.1, 0.1}
	ProjectSimplexLB(v, lb)
	if math.Abs(sum(v)-1) > 1e-12 {
		t.Fatalf("Σ = %v", sum(v))
	}
	for i := range v {
		if v[i] < lb[i]-1e-12 {
			t.Fatalf("v[%d] = %v below %v", i, v[i], lb[i])
		}
	}
	if v[0] != 0.2 {
		t.Fatalf("clamped coordinate should sit at its bound: %v", v)
	}
}

// Property: the projection output is feasible, and projecting twice is
// the identity (projections are idempotent).
func TestQuickProjectionFeasibleIdempotent(t *testing.T) {
	f := func(raw [6]int16) bool {
		v := make([]float64, 6)
		for i, r := range raw {
			v[i] = float64(r) / 1000
		}
		lb := make([]float64, 6)
		ProjectSimplexLB(v, lb)
		if math.Abs(sum(v)-1) > 1e-9 {
			return false
		}
		for _, x := range v {
			if x < -1e-12 {
				return false
			}
		}
		again := append([]float64(nil), v...)
		ProjectSimplexLB(again, lb)
		for i := range v {
			if math.Abs(again[i]-v[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: projection minimizes Euclidean distance — no random
// feasible point may be closer to the input.
func TestQuickProjectionIsClosestPoint(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		n := 4
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Uniform(-2, 2)
		}
		proj := append([]float64(nil), v...)
		lb := make([]float64, n)
		ProjectSimplexLB(proj, lb)
		dProj := dist2(v, proj)
		// Random feasible candidates.
		for c := 0; c < 50; c++ {
			cand := randomSimplexPoint(r, n)
			if dist2(v, cand) < dProj-1e-9 {
				t.Fatalf("found closer feasible point: %v closer to %v than %v", cand, v, proj)
			}
		}
	}
}

func dist2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func randomSimplexPoint(r *rng.RNG, n int) []float64 {
	x := make([]float64, n)
	s := 0.0
	for i := range x {
		x[i] = -math.Log(1 - r.Float64())
		s += x[i]
	}
	for i := range x {
		x[i] /= s
	}
	return x
}
