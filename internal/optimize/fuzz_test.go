package optimize_test

import (
	"context"
	"math"
	"testing"

	"mupod/internal/optimize"
	"mupod/internal/refcheck"
)

// f64s decodes data into n finite values in [lo, hi), cycling over the
// bytes so short fuzz inputs still yield full vectors.
func f64s(data []byte, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for k := range out {
		var u uint64
		for b := 0; b < 8; b++ {
			u = u<<8 | uint64(data[(k*8+b)%len(data)])
		}
		frac := float64(u>>11) / (1 << 53)
		out[k] = lo + frac*(hi-lo)
	}
	return out
}

// FuzzProjectSimplexLB checks that the Euclidean projection returns a
// point on the lower-bounded simplex (Σξ = 1 to 1e-12, ξ_K ≥ lb_K) for
// arbitrary finite inputs and any feasible bound vector.
func FuzzProjectSimplexLB(f *testing.F) {
	f.Add(3, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(1, []byte{0})
	f.Add(16, []byte{255, 0, 128, 7, 77, 200, 3, 9})
	f.Add(200, []byte{13, 99, 250, 1})
	f.Fuzz(func(t *testing.T, n int, data []byte) {
		if len(data) == 0 {
			return
		}
		n = n % 512
		if n < 1 {
			if n < 0 {
				n = -n
			}
			n++
		}
		v := f64s(data, n, -10, 10)
		// Bounds scaled so Σlb ≤ 0.5 keeps the problem feasible.
		lb := f64s(append([]byte{42}, data...), n, 0, 0.5/float64(n))
		optimize.ProjectSimplexLB(v, lb)
		if err := refcheck.CheckSimplex(v, func(k int) float64 { return lb[k] }); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	})
}

// fuzzProblem is a strictly convex separable objective with
// fuzz-controlled curvature, centers and lower bounds.
type fuzzProblem struct{ w, c, lb []float64 }

func (p *fuzzProblem) Dim() int                 { return len(p.w) }
func (p *fuzzProblem) LowerBound(k int) float64 { return p.lb[k] }
func (p *fuzzProblem) Value(xi []float64) float64 {
	s := 0.0
	for k := range xi {
		d := xi[k] - p.c[k]
		s += p.w[k] * d * d
	}
	return s
}
func (p *fuzzProblem) XiAt(k int, mu float64) float64 {
	return math.Max(p.lb[k], p.c[k]-mu/(2*p.w[k]))
}

// FuzzSolveNewtonKKT (the name CI's fuzz step runs) solves
// fuzz-generated strictly convex problems with Solve and checks the
// Eq. 6 contract (Σξ = 1 to 1e-12, ξ_K ≥ lb_K), the first-order
// oracle, and for n ≤ 3 agreement with the brute-force grid.
func FuzzSolveNewtonKKT(f *testing.F) {
	f.Add(4, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(1, []byte{200})
	f.Add(64, []byte{0, 255, 0, 255, 17})
	f.Add(500, []byte{31, 41, 59, 26, 53, 58})
	f.Fuzz(func(t *testing.T, n int, data []byte) {
		if len(data) == 0 {
			return
		}
		n = n % 1024
		if n < 1 {
			if n < 0 {
				n = -n
			}
			n++
		}
		p := &fuzzProblem{
			w:  f64s(data, n, 0.1, 10),
			c:  f64s(append([]byte{1}, data...), n, 0, 2/float64(n)),
			lb: f64s(append([]byte{2}, data...), n, 0, 0.5/float64(n)),
		}
		xi, _, err := optimize.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if cerr := refcheck.CheckSimplex(xi, p.LowerBound); cerr != nil {
			t.Fatalf("n=%d: %v", n, cerr)
		}
		v := p.Value(xi)
		if v != v || math.IsInf(v, 0) {
			t.Fatalf("n=%d: non-finite objective %g", n, v)
		}
		if cerr := refcheck.CheckNoDescentMove(p, xi, 1e-7); cerr != nil {
			t.Fatalf("n=%d: %v", n, cerr)
		}
		if n <= 3 {
			if cerr := refcheck.CheckSolverBeatsGrid(p, xi, 60, refcheck.Allowance(p, xi)); cerr != nil {
				t.Fatalf("n=%d: %v", n, cerr)
			}
		}
	})
}
