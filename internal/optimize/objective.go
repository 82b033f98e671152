package optimize

import (
	"fmt"
	"math"

	"mupod/internal/profile"
)

// ln2 converts natural logs to bits.
var ln2 = math.Log(2)

// BitObjective is Eq. 8 of the paper: F(ξ) = Σ ρ_K·(−log2 Δ_K(ξ_K))
// with Δ_K(ξ) = λ_K·σ_YŁ·√ξ + θ_K. Build one with NewBitObjective.
type BitObjective struct {
	Rho     []float64 // relative importance per source (#Input or #MAC)
	src     []*profile.Source
	sigma   float64
	lb      []float64
	deltaLo float64
}

// NewBitObjective assembles the objective from the noise sources, the
// searched σ_YŁ, and the per-source importance weights ρ (len ==
// len(src)).
//
// deltaFloor sets the smallest Δ any source is allowed to reach (> 0);
// the per-coordinate lower bound lb_K is derived from it, which both
// keeps Δ_K positive when θ_K < 0 and caps the finest representable
// fraction width. Pass 0 for profile.DefaultDeltaFloor.
func NewBitObjective(src []*profile.Source, sigmaYL float64, rho []float64, deltaFloor float64) (*BitObjective, error) {
	n := len(src)
	if len(rho) != n {
		return nil, fmt.Errorf("optimize: %d ρ weights for %d sources", len(rho), n)
	}
	if sigmaYL <= 0 {
		return nil, fmt.Errorf("optimize: σ_YŁ must be positive, got %g", sigmaYL)
	}
	o := &BitObjective{
		Rho:     append([]float64(nil), rho...),
		src:     src,
		sigma:   sigmaYL,
		lb:      make([]float64, n),
		deltaLo: profile.DeltaFloor(deltaFloor),
	}
	for k, s := range src {
		if rho[k] < 0 {
			return nil, fmt.Errorf("optimize: negative ρ=%g for source %d (%s)", rho[k], k, s.Name)
		}
		// Δ(lb) = deltaLo ⇒ lb = ((deltaLo−θ)/a)², clamped ≥ εξ.
		lb := 1e-9
		if need := (o.deltaLo - s.Theta) / (s.Lambda * sigmaYL); need > 0 {
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

// Delta evaluates Δ_K(ξ) (Eq. 7), floored at the configured minimum so
// logs stay finite.
func (o *BitObjective) Delta(k int, xi float64) float64 {
	return max(o.src[k].DeltaFor(o.sigma, xi), o.deltaLo)
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
	a, theta := o.src[k].Lambda*o.sigma, o.src[k].Theta
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
