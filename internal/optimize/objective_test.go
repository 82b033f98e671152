package optimize

import (
	"context"
	"math"
	"testing"

	"mupod/internal/profile"
)

// fakeSources builds noise sources with the given λ, θ.
func fakeSources(lambda, theta []float64) []*profile.Source {
	var src []*profile.Source
	for k := range lambda {
		src = append(src, &profile.Source{
			NodeID: k + 1,
			Name:   "l",
			Lambda: lambda[k],
			Theta:  theta[k],
		})
	}
	return src
}

func TestNewBitObjectiveValidation(t *testing.T) {
	p := fakeSources([]float64{1, 1}, []float64{0, 0})
	if _, err := NewBitObjective(p, 1, []float64{1}, 0); err == nil {
		t.Fatal("no error on ρ length mismatch")
	}
	if _, err := NewBitObjective(p, 0, []float64{1, 1}, 0); err == nil {
		t.Fatal("no error on σ=0")
	}
	if _, err := NewBitObjective(p, 1, []float64{1, -1}, 0); err == nil {
		t.Fatal("no error on negative ρ")
	}
}

// TestBitObjectiveGradientNumerically checks XiAt against the
// objective itself: at an interior ξ_K = XiAt(k, μ) the finite-difference
// slope of Value along coordinate k is −μ, for either sign of θ.
func TestBitObjectiveGradientNumerically(t *testing.T) {
	p := fakeSources([]float64{2, 0.5, 1}, []float64{0.01, -0.002, 0})
	o, err := NewBitObjective(p, 0.7, []float64{3, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-7
	for _, mu := range []float64{0.5, 3, 20} {
		xi := []float64{0.3, 0.3, 0.3}
		for k := range xi {
			xi[k] = o.XiAt(k, mu)
			if xi[k] <= o.LowerBound(k) {
				t.Fatalf("μ=%g: ξ[%d] = %v on its bound %v", mu, k, xi[k], o.LowerBound(k))
			}
			up := append([]float64(nil), xi...)
			up[k] += eps
			dn := append([]float64(nil), xi...)
			dn[k] -= eps
			slope := (o.Value(up) - o.Value(dn)) / (2 * eps)
			if math.Abs(slope+mu) > 1e-5*mu {
				t.Fatalf("μ=%g: slope at ξ[%d] = %v is %v, want %v", mu, k, xi[k], slope, -mu)
			}
		}
	}
	// Non-increasing in μ, +Inf where no finite ξ minimizes, and a
	// zero-ρ source on its bound.
	for k := 0; k < 3; k++ {
		if a, b := o.XiAt(k, 1), o.XiAt(k, 2); a < b {
			t.Fatalf("XiAt(%d) increases with μ: %v → %v", k, a, b)
		}
		if x := o.XiAt(k, 0); !math.IsInf(x, 1) {
			t.Fatalf("XiAt(%d, 0) = %v, want +Inf", k, x)
		}
	}
	z, err := NewBitObjective(p, 0.7, []float64{0, 1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x := z.XiAt(0, 5); x != z.LowerBound(0) {
		t.Fatalf("zero-ρ source at %v, want its bound %v", x, z.LowerBound(0))
	}
}

func TestSolverMatchesClosedFormWhenThetaZero(t *testing.T) {
	// θ = 0 ⇒ optimal ξ ∝ ρ (Lagrange condition; see ClosedFormXi).
	lambda := []float64{1.5, 0.3, 2.0, 0.8}
	theta := []float64{0, 0, 0, 0}
	rho := []float64{10, 40, 25, 25}
	p := fakeSources(lambda, theta)
	o, err := NewBitObjective(p, 0.5, rho, 0)
	if err != nil {
		t.Fatal(err)
	}
	xi, _, err := Solve(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	want := ClosedFormXi(rho)
	for k := range xi {
		if math.Abs(xi[k]-want[k]) > 1e-12 {
			t.Fatalf("ξ = %v, closed form %v", xi, want)
		}
	}
}

func TestSolverHandlesNegativeTheta(t *testing.T) {
	p := fakeSources([]float64{1, 1}, []float64{-0.05, 0.02})
	o, err := NewBitObjective(p, 0.3, []float64{1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	xi, _, err := Solve(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	// Both deltas must be positive at the solution.
	for k := range xi {
		if o.Delta(k, xi[k]) <= 0 {
			t.Fatalf("Δ[%d] = %v", k, o.Delta(k, xi[k]))
		}
	}
	if math.Abs(sum(xi)-1) > 1e-9 {
		t.Fatalf("Σξ = %v", sum(xi))
	}
}

func TestHigherRhoGetsHigherXi(t *testing.T) {
	// The paper's core reallocation: heavier layers (more inputs/MACs)
	// receive a larger error share → fewer bits.
	p := fakeSources([]float64{1, 1, 1}, []float64{0.001, 0.001, 0.001})
	o, err := NewBitObjective(p, 0.5, []float64{100, 10, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	xi, _, err := Solve(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !(xi[0] > xi[1] && xi[1] > xi[2]) {
		t.Fatalf("ξ not ordered with ρ: %v", xi)
	}
}

func TestOptimizedBeatsEqualScheme(t *testing.T) {
	// The optimizer must never do worse than ξ_K = 1/Ł on its own
	// objective (the claim behind Table II's savings).
	lambda := []float64{0.36, 0.9, 1.5, 1.1, 2.2}
	theta := []float64{0.002, 0.01, -0.003, 0.004, 0.0}
	rho := []float64{154.6, 70, 43.2, 64.9, 64.9} // paper's #Input row
	p := fakeSources(lambda, theta)
	o, err := NewBitObjective(p, 0.32, rho, 0)
	if err != nil {
		t.Fatal(err)
	}
	xi, _, err := Solve(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	equal := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	if o.Value(xi) > o.Value(equal)+1e-9 {
		t.Fatalf("optimizer (%v) worse than equal scheme (%v)", o.Value(xi), o.Value(equal))
	}
}

// An all-zero ρ (a custom objective a client may submit) makes every
// feasible ξ optimal; Solve returns lb plus an equal share of the rest,
// with every source's Δ above the floor.
func TestSolveAllZeroRho(t *testing.T) {
	p := fakeSources([]float64{1, 0.5, 2}, []float64{-0.3, 0.01, 0})
	o, err := NewBitObjective(p, 0.5, []float64{0, 0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	xi, _, err := Solve(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	lbSum := 0.0
	for k := range xi {
		lbSum += o.LowerBound(k)
	}
	share := (1 - lbSum) / 3
	for k := range xi {
		if want := o.LowerBound(k) + share; math.Abs(xi[k]-want) > 1e-15 {
			t.Fatalf("ξ = %v, want lb + %v each", xi, share)
		}
	}
	if math.Abs(sum(xi)-1) > 1e-15 {
		t.Fatalf("Σξ = %v", sum(xi))
	}
}

func TestClosedFormXiDegenerate(t *testing.T) {
	xi := ClosedFormXi([]float64{0, 0})
	if xi[0] != 0.5 || xi[1] != 0.5 {
		t.Fatalf("all-zero ρ: %v", xi)
	}
	xi = ClosedFormXi([]float64{3, 1})
	if xi[0] != 0.75 || xi[1] != 0.25 {
		t.Fatalf("ξ = %v", xi)
	}
}

func TestDeltaFloorRespected(t *testing.T) {
	p := fakeSources([]float64{1}, []float64{-1}) // θ very negative
	floor := 1.0 / 1024
	o, err := NewBitObjective(p, 1, []float64{1}, floor)
	if err != nil {
		t.Fatal(err)
	}
	// At the lower bound, Δ must be exactly the floor.
	if d := o.Delta(0, o.LowerBound(0)); math.Abs(d-floor) > 1e-12 {
		t.Fatalf("Δ at bound = %v, want %v", d, floor)
	}
}
