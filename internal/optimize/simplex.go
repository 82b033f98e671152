// Package optimize solves the paper's multi-objective bitwidth problem
// (Eq. 8): choose the error-budget decomposition ξ on the probability
// simplex that minimizes the ρ-weighted total bit count
//
//	min F(ξ) = Σ_K ρ_K·(−log2 Δ_K(ξ_K)),  Δ_K = λ_K·σ_YŁ·√ξ_K + θ_K
//	s.t. Σ_K ξ_K = 1,  ξ_K ≥ lb_K
//
// The paper hands this to Octave's sqp. F is separable and convex in ξ
// (−log of a concave positive function), so the problem is solved
// exactly through the multiplier μ of Σξ_K = 1: for a given μ every
// coordinate's minimizer of F_K(ξ) + μ·ξ has a closed form
// (Problem.XiAt), Σ_K ξ_K(μ) is non-increasing in μ, and Solve bisects
// μ until the two ends of its bracket are adjacent floats.
package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Problem is a separable objective over the lower-bounded simplex.
type Problem interface {
	// Value returns F(ξ).
	Value(xi []float64) float64
	// XiAt returns the ξ ≥ lb_K minimizing F_K(ξ) + μ·ξ for one
	// coordinate (+Inf when no finite ξ does). It must be non-increasing
	// in μ.
	XiAt(k int, mu float64) float64
	// Dim returns the number of coordinates.
	Dim() int
	// LowerBound returns the per-coordinate feasibility bound lb_K
	// (≥ some tiny positive value; Δ_K must stay positive).
	LowerBound(k int) float64
}

// Stats reports solver behaviour for logging and tests.
type Stats struct {
	// Iterations counts the evaluations of Σ_K ξ_K(μ): the bracket's
	// doublings, the bisection steps and the final evaluation.
	Iterations int
	Value      float64
}

// ErrInfeasible is returned when the per-coordinate lower bounds sum
// above 1 and no feasible ξ exists.
var ErrInfeasible = errors.New("optimize: lower bounds exceed the simplex")

// Solve minimizes p over the lower-bounded simplex. The mass
// M(μ) = Σ_K ξ_K(μ) is non-increasing in the multiplier μ, so Solve
// brackets the μ with M(μ) = 1 by doubling away from 0, bisects the
// bracket until its ends are adjacent floats, and returns ξ(μ) at the
// end whose mass is ≤ 1. Every step halves a float interval, so the
// loop is bounded by the exponent range (about 2,100 steps); a
// pipeline solve takes about 60.
//
// ξ(μ) is exact for its μ, so the mass it leaves is rounding; it goes
// to every coordinate in equal shares, and normalizeExact folds the
// last ulps in. The one exception is a flat objective (every ρ_K = 0):
// M jumps from Σlb to +∞ at μ = 0, every feasible ξ is optimal, and the
// equal shares return lb plus an equal share of the rest.
func Solve(ctx context.Context, p Problem) ([]float64, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, fmt.Errorf("optimize: %w", err)
	}
	n := p.Dim()
	lbSum := 0.0
	for k := 0; k < n; k++ {
		lbSum += p.LowerBound(k)
	}
	if lbSum >= 1 {
		return nil, Stats{}, fmt.Errorf("%w: Σlb=%.4g", ErrInfeasible, lbSum)
	}
	var st Stats
	defer countSolve(&st)
	xi := make([]float64, n)
	mass := func(mu float64) float64 {
		st.Iterations++
		m := 0.0
		for k := range xi {
			xi[k] = p.XiAt(k, mu)
			m += xi[k]
		}
		return m
	}
	// lo keeps M(lo) > 1 and hi keeps M(hi) ≤ 1.
	var lo, hi float64
	if mass(0) > 1 {
		hi = 1
		for !math.IsInf(hi, 1) && mass(hi) > 1 {
			lo, hi = hi, 2*hi
		}
	} else {
		lo = -1
		for !math.IsInf(lo, -1) && mass(lo) <= 1 {
			hi, lo = lo, 2*lo
		}
	}
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, st, errors.New("optimize: no multiplier brings Σξ to 1")
	}
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if mass(mid) > 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	share := (1 - mass(hi)) / float64(n)
	for k := range xi {
		xi[k] += share
	}
	normalizeExact(xi, p.LowerBound)
	st.Value = p.Value(xi)
	return xi, st, nil
}

// normalizeExact removes the O(n·ulp) drift plain summation leaves in
// Σξ: it measures the residual 1 − Σξ with compensated (Kahan)
// summation and folds it into the coordinate with the most free mass
// above its bound, so the refcheck invariant Σξ_K = 1 within 1e-12
// holds at any depth.
func normalizeExact(xi []float64, lbOf func(int) float64) {
	var s, comp float64
	for _, x := range xi {
		y := x - comp
		t := s + y
		comp = (t - s) - y
		s = t
	}
	r := 1 - s
	if r == 0 {
		return
	}
	j, best := 0, math.Inf(-1)
	for k := range xi {
		free := xi[k]
		if lbOf != nil {
			free -= lbOf(k)
		}
		if free > best {
			best, j = free, k
		}
	}
	xi[j] += r
}

// ProjectSimplexLB projects v in place onto {x : Σx = 1, x_K ≥ lb_K}
// in Euclidean distance. It shifts by the lower bounds and applies the
// standard O(n log n) simplex projection (Held-Wolfe-Crowder) to the
// remaining mass.
func ProjectSimplexLB(v []float64, lb []float64) {
	n := len(v)
	mass := 1.0
	w := make([]float64, n)
	for k := 0; k < n; k++ {
		w[k] = v[k] - lb[k]
		mass -= lb[k]
	}
	if mass < 0 {
		panic("optimize: ProjectSimplexLB infeasible lower bounds")
	}
	projectSimplex(w, mass)
	for k := 0; k < n; k++ {
		v[k] = lb[k] + w[k]
	}
	normalizeExact(v, func(k int) float64 { return lb[k] })
}

// projectSimplex projects w in place onto {x ≥ 0, Σx = mass}.
func projectSimplex(w []float64, mass float64) {
	n := len(w)
	sorted := append([]float64(nil), w...)
	// Descending insertion sort is fine for n ≤ a few hundred.
	for i := 1; i < n; i++ {
		x := sorted[i]
		j := i - 1
		for j >= 0 && sorted[j] < x {
			sorted[j+1] = sorted[j]
			j--
		}
		sorted[j+1] = x
	}
	var cum float64
	tau := 0.0
	for i := 0; i < n; i++ {
		cum += sorted[i]
		t := (cum - mass) / float64(i+1)
		if i == n-1 || sorted[i+1] <= t {
			tau = t
			break
		}
	}
	for k := 0; k < n; k++ {
		w[k] -= tau
		if w[k] < 0 {
			w[k] = 0
		}
	}
}
