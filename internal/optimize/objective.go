package optimize

import (
	"fmt"
	"math"

	"mupod/internal/profile"
)

// ln2 converts natural logs to bits.
var ln2 = math.Log(2)

// DefaultDeltaFloor is the smallest Δ any source may reach when a
// caller passes no floor of its own: 2^-20, a 19-bit fraction.
const DefaultDeltaFloor = 0x1p-20

// BitObjective is Eq. 8 of the paper: F(ξ) = Σ ρ_K·(−log2 Δ_K(ξ_K))
// with Δ_K(ξ) = λ_K·σ_YŁ·√ξ + θ_K. Build one with NewBitObjective.
type BitObjective struct {
	Rho     []float64 // relative importance per layer (#Input or #MAC)
	A       []float64 // a_K = λ_K·σ_YŁ
	Theta   []float64
	lb      []float64
	deltaLo float64
}

// NewBitObjective assembles the objective from a profile, the searched
// σ_YŁ, and the per-layer importance weights ρ (len == prof layers).
//
// deltaFloor sets the smallest Δ any layer is allowed to reach (> 0);
// the per-coordinate lower bound lb_K is derived from it, which both
// keeps Δ_K positive when θ_K < 0 and caps the finest representable
// fraction width. Pass 0 for DefaultDeltaFloor.
func NewBitObjective(prof *profile.Profile, sigmaYL float64, rho []float64, deltaFloor float64) (*BitObjective, error) {
	n := prof.NumLayers()
	if len(rho) != n {
		return nil, fmt.Errorf("optimize: %d ρ weights for %d layers", len(rho), n)
	}
	if sigmaYL <= 0 {
		return nil, fmt.Errorf("optimize: σ_YŁ must be positive, got %g", sigmaYL)
	}
	if deltaFloor <= 0 {
		deltaFloor = DefaultDeltaFloor
	}
	o := &BitObjective{
		Rho:     append([]float64(nil), rho...),
		A:       make([]float64, n),
		Theta:   make([]float64, n),
		lb:      make([]float64, n),
		deltaLo: deltaFloor,
	}
	for k := 0; k < n; k++ {
		lp := &prof.Layers[k]
		if rho[k] < 0 {
			return nil, fmt.Errorf("optimize: negative ρ for layer %s", lp.Name)
		}
		o.A[k] = lp.Lambda * sigmaYL
		o.Theta[k] = lp.Theta
		// Δ(lb) = deltaFloor ⇒ lb = ((deltaFloor−θ)/a)², clamped ≥ εξ.
		lb := 1e-9
		if need := (deltaFloor - lp.Theta) / o.A[k]; need > 0 {
			if b := need * need; b > lb {
				lb = b
			}
		}
		o.lb[k] = lb
	}
	return o, nil
}

// Dim implements Problem.
func (o *BitObjective) Dim() int { return len(o.Rho) }

// LowerBound implements Problem.
func (o *BitObjective) LowerBound(k int) float64 { return o.lb[k] }

// Delta evaluates Δ_K(ξ) = a_K·√ξ + θ_K, floored at the configured
// minimum so logs stay finite.
func (o *BitObjective) Delta(k int, xi float64) float64 {
	d := o.A[k]*math.Sqrt(xi) + o.Theta[k]
	if d < o.deltaLo {
		return o.deltaLo
	}
	return d
}

// Value implements Problem.
func (o *BitObjective) Value(xi []float64) float64 {
	total := 0.0
	for k := range o.Rho {
		total += o.Rho[k] * (-math.Log2(o.Delta(k, xi[k])))
	}
	return total
}

// Magnitude returns Σ_K |ρ_K·log2 Δ_K(ξ_K)|, the size of the terms
// Value sums. It bounds Value's rounding: once some Δ_K > 1 the terms
// have both signs and cancel, so |Value| can be far smaller than the
// rounding error it carries (see refcheck.Allowance).
func (o *BitObjective) Magnitude(xi []float64) float64 {
	total := 0.0
	for k := range o.Rho {
		total += math.Abs(o.Rho[k] * math.Log2(o.Delta(k, xi[k])))
	}
	return total
}

// XiAt implements Problem. With s = √ξ, a = λσ and c = ρ/ln 2, the
// condition F_K'(ξ) + μ = 0 is 2μa·s² + 2μθ·s − c·a = 0. Its positive
// root is written in the form that does not cancel for the sign of θ,
// and ξ = s² is clamped at lb_K. F_K is non-increasing, so μ ≤ 0 has no
// finite minimizer, and a source with ρ_K = 0 sits on its bound.
func (o *BitObjective) XiAt(k int, mu float64) float64 {
	if mu <= 0 {
		return math.Inf(1)
	}
	a, theta := o.A[k], o.Theta[k]
	ca := o.Rho[k] / ln2 * a
	if ca == 0 {
		return o.lb[k]
	}
	root := math.Sqrt(mu*mu*theta*theta + 2*mu*a*ca)
	var s float64
	if theta >= 0 {
		s = ca / (mu*theta + root)
	} else {
		s = (root - mu*theta) / (2 * mu * a)
	}
	return math.Max(s*s, o.lb[k])
}

// ClosedFormXi returns the analytic optimum for the θ=0 special case:
// with Δ_K = a_K√ξ_K the Lagrange condition gives ξ_K ∝ ρ_K. It is the
// reference the solver is tested against.
func ClosedFormXi(rho []float64) []float64 {
	total := 0.0
	for _, r := range rho {
		total += r
	}
	xi := make([]float64, len(rho))
	if total == 0 {
		for k := range xi {
			xi[k] = 1 / float64(len(rho))
		}
		return xi
	}
	for k, r := range rho {
		xi[k] = r / total
	}
	return xi
}
