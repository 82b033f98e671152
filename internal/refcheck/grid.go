package refcheck

import (
	"fmt"
	"math"

	"mupod/internal/optimize"
)

// GridSolve brute-forces Eq. 8 on small problems: it enumerates every
// point of the regular simplex grid {ξ : ξ_K = c_K/steps, Σc_K = steps}
// that satisfies the per-coordinate lower bounds and returns the best
// feasible point and its objective value. Exponential in Dim — intended
// as the oracle for the exact solver on networks with a handful of
// analyzable layers. Returns an error when no grid point is feasible
// (lower bounds too tight for the resolution).
func GridSolve(p optimize.Problem, steps int) ([]float64, float64, error) {
	n := p.Dim()
	if steps < n {
		return nil, 0, fmt.Errorf("refcheck: %d grid steps cannot cover %d coordinates", steps, n)
	}
	lb := make([]float64, n)
	for k := 0; k < n; k++ {
		lb[k] = p.LowerBound(k)
	}
	cur := make([]float64, n)
	var best []float64
	bestVal := math.Inf(1)
	var rec func(k, remaining int)
	rec = func(k, remaining int) {
		if k == n-1 {
			x := float64(remaining) / float64(steps)
			if x < lb[k] {
				return
			}
			cur[k] = x
			if v := p.Value(cur); v < bestVal {
				bestVal = v
				best = append(best[:0], cur...)
			}
			return
		}
		for c := 0; c <= remaining; c++ {
			x := float64(c) / float64(steps)
			if x < lb[k] {
				continue
			}
			cur[k] = x
			rec(k+1, remaining-c)
		}
	}
	rec(0, steps)
	if best == nil {
		return nil, 0, fmt.Errorf("refcheck: no feasible grid point at resolution 1/%d", steps)
	}
	return best, bestVal, nil
}

// CheckSolverBeatsGrid verifies a solver solution against the
// brute-force oracle: for a convex Eq. 8 objective the solver's value
// must be at least as good as the best grid point, up to slack for
// rounding (Allowance(p, xi) for an exact solver).
func CheckSolverBeatsGrid(p optimize.Problem, xi []float64, steps int, slack float64) error {
	gridXi, gridVal, err := GridSolve(p, steps)
	if err != nil {
		return err
	}
	val := p.Value(xi)
	if val > gridVal+slack {
		return fmt.Errorf("solver value %.9g worse than grid oracle %.9g at ξ=%v", val, gridVal, gridXi)
	}
	return nil
}

// ValueTol is the relative rounding allowance on an Eq. 8 objective
// value: an exact solution may lose to another point by no more than
// Allowance, ValueTol times the size of the terms the value sums.
const ValueTol = 1e-12

// Allowance is the rounding an exact solution's value p.Value(xi) may
// carry: ValueTol·Σ_K|term_K| when p reports that sum through a
// Magnitude method (optimize.BitObjective does), else ValueTol·|value|.
// The two agree while no terms cancel; once some Eq. 8 term
// ρ_K·(−log2 Δ_K) turns negative (Δ_K > 1, at σ_YŁ near 4 and above)
// the sum can be far larger than |value|, and so can the rounding.
func Allowance(p optimize.Problem, xi []float64) float64 {
	if m, ok := p.(interface{ Magnitude(xi []float64) float64 }); ok {
		return ValueTol * m.Magnitude(xi)
	}
	return ValueTol * math.Abs(p.Value(xi))
}

// CheckNoDescentMove is a derivative-free first-order optimality check
// for Eq. 8 that works at any dimension and shares no code with the
// solver: moving eps of free mass from any source to any other must
// not lower p.Value by more than Allowance(p, xi). The objective is
// separable, so a move's change is the donor's change plus the
// receiver's: the check measures each with one Value call per source
// and side, then evaluates the move with the lowest sum. Only sources
// with at least eps of free mass above their bound donate.
func CheckNoDescentMove(p optimize.Problem, xi []float64, eps float64) error {
	v := p.Value(xi)
	x := append([]float64(nil), xi...)
	change := func(k int, d float64) float64 {
		x[k] += d
		c := p.Value(x) - v
		x[k] = xi[k]
		return c
	}
	give := make([]float64, len(xi))
	take := make([]float64, len(xi))
	for k := range xi {
		give[k] = math.Inf(1)
		if xi[k]-eps >= p.LowerBound(k) {
			give[k] = change(k, -eps)
		}
		take[k] = change(k, eps)
	}
	from, to, best := -1, -1, math.Inf(1)
	for j := range give {
		for k := range take {
			if j != k && give[j]+take[k] < best {
				from, to, best = j, k, give[j]+take[k]
			}
		}
	}
	if from < 0 {
		return nil // no source can give eps to another
	}
	x[from] -= eps
	x[to] += eps
	if moved := p.Value(x); moved < v-Allowance(p, xi) {
		return fmt.Errorf("moving %g of ξ from source %d to %d lowers the value from %.17g to %.17g (relative %.3g)",
			eps, from, to, v, moved, (moved-v)/math.Abs(v))
	}
	return nil
}
