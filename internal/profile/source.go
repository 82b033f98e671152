package profile

import (
	"fmt"
	"math"

	"mupod/internal/fixedpoint"
	"mupod/internal/stats"
)

// DefaultDeltaFloor is the smallest Δ any source may reach when a
// caller passes no floor of its own: 2^-20, a 19-bit fraction.
const DefaultDeltaFloor = 0x1p-20

// DeltaFloor returns floor, or DefaultDeltaFloor when floor ≤ 0.
func DeltaFloor(floor float64) float64 {
	if floor <= 0 {
		return DefaultDeltaFloor
	}
	return floor
}

// Source is one noise source of the error model: a layer's input (this
// package), a channel group of it (internal/groups) or a layer's
// weights (internal/weights). It holds the source's Eq. 5 fit and its
// range, and turns a share ξ of the output budget σ_YŁ into a Δ (Eq. 7)
// and a fixed-point format (Sec. II-A).
type Source struct {
	NodeID int
	Name   string

	// Lambda and Theta are the Eq. 5 constants; R2 is the regression's
	// coefficient of determination and MaxRelErr the worst relative
	// error of predicting Δ from σ over the measured points (the paper
	// reports <5% typical, ~10% worst case).
	Lambda, Theta float64
	R2            float64
	MaxRelErr     float64

	// Deltas/Sigmas are the raw measurement points (x=σ_{Y_K→Ł},
	// y=Δ_K) behind the fit — exactly what Fig. 2 plots.
	Deltas, Sigmas []float64

	// MaxAbs is max |x| over the source's profiled values; IntBits the
	// derived signed integer bit count (Sec. II-A).
	MaxAbs  float64
	IntBits int
}

// NewSource returns the unfitted source of node nodeID whose profiled
// values reach maxAbs in magnitude.
func NewSource(nodeID int, name string, maxAbs float64) Source {
	return Source{NodeID: nodeID, Name: name, MaxAbs: maxAbs, IntBits: fixedpoint.IntBitsForRange(maxAbs)}
}

// Fit fits Eq. 5 to the source's measured points (Δ_i, σ_i) with
// relative-error weighting (w = 1/Δ²), which balances the log-spaced
// sweep so the fit is accurate across the whole operating range, not
// just at the largest Δ, and keeps the points. A λ that is not a
// positive finite number is an error.
func (s *Source) Fit(deltas, sigmas []float64) error {
	w := make([]float64, len(deltas))
	for i, d := range deltas {
		w[i] = 1 / (d * d)
	}
	fit, err := stats.FitLineWeighted(sigmas, deltas, w)
	if err != nil {
		return err
	}
	if !(fit.Slope > 0) || math.IsInf(fit.Slope, 1) {
		return fmt.Errorf("λ=%.4g is not a positive finite number (R²=%.3f): injection did not reach the output", fit.Slope, fit.R2)
	}
	s.Deltas, s.Sigmas = deltas, sigmas
	s.Lambda, s.Theta, s.R2 = fit.Slope, fit.Intercept, fit.R2
	s.MaxRelErr = stats.Max(fit.RelativeErrors(sigmas, deltas))
	return nil
}

// DeltaFor evaluates Eq. 7 for this source: Δ = λ·σ_YŁ·√ξ + θ.
func (s *Source) DeltaFor(sigmaYL, xi float64) float64 {
	return s.Lambda*sigmaYL*math.Sqrt(xi) + s.Theta
}

// FormatFor converts a tolerated Δ into the source's complete fixed-
// point format (integer bits from the profiled range).
func (s *Source) FormatFor(delta float64) fixedpoint.Format {
	return fixedpoint.Format{
		IntBits:  s.IntBits,
		FracBits: fixedpoint.FracBitsForDelta(delta),
	}
}

// Allot is the one Δ→format rule of every allocation: the source's
// share ξ of σ_YŁ gives Δ by Eq. 7, times scale, floored at floor (0 =
// DefaultDeltaFloor), and Δ gives the format.
func (s *Source) Allot(sigmaYL, xi, floor, scale float64) (float64, fixedpoint.Format) {
	delta := max(s.DeltaFor(sigmaYL, xi)*scale, DeltaFloor(floor))
	return delta, s.FormatFor(delta)
}
