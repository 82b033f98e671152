package refcheck

import (
	"fmt"
	"math"

	"mupod/internal/fixedpoint"
	"mupod/internal/profile"
	"mupod/internal/search"
	"mupod/internal/tensor"
)

// SimplexTol is the documented bound on |Σξ_K − 1| after any solver or
// projection finishes (Eq. 6). The solvers hold it to a few ulps; the
// invariant asserts the contract the rest of the pipeline relies on.
const SimplexTol = 1e-12

// kahanSum sums with compensation so the check's own measurement does
// not contribute O(n·ulp) error at depth.
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

// CheckSimplex verifies the Eq. 6 budget constraint: Σξ_K = 1 within
// SimplexTol and every coordinate at or above its lower bound (lb may
// be nil for the plain simplex).
func CheckSimplex(xi []float64, lb func(int) float64) error {
	if len(xi) == 0 {
		return fmt.Errorf("empty ξ")
	}
	if d := math.Abs(kahanSum(xi) - 1); d > SimplexTol {
		return fmt.Errorf("|Σξ−1| = %g exceeds %g", d, SimplexTol)
	}
	for k, x := range xi {
		b := 0.0
		if lb != nil {
			b = lb(k)
		}
		if x < b-SimplexTol {
			return fmt.Errorf("ξ[%d] = %g below bound %g", k, x, b)
		}
	}
	return nil
}

// CheckFormatRoundTrip verifies the Sec. II-A bit-width algebra for one
// fraction width F, including negative F (Stripes/Loom serialized-bit
// formats): Δ(F) = 2^−(F+1), the inverse F = ⌈−log2(2Δ)⌉ recovers F
// exactly, Δ survives a trip through σ-space, and the Format accessors
// agree with the free functions.
func CheckFormatRoundTrip(fracBits int) error {
	delta := fixedpoint.DeltaForFracBits(fracBits)
	if back := fixedpoint.FracBitsForDelta(delta); back != fracBits {
		return fmt.Errorf("F=%d → Δ=%g → F=%d (round trip broken)", fracBits, delta, back)
	}
	f := fixedpoint.Format{IntBits: 8, FracBits: fracBits}
	if f.Delta() != delta {
		return fmt.Errorf("Format.Delta()=%g, DeltaForFracBits=%g", f.Delta(), delta)
	}
	if f.Step() != 2*delta {
		return fmt.Errorf("step %g is not 2Δ=%g", f.Step(), 2*delta)
	}
	sigma := fixedpoint.SigmaFromDelta(delta)
	if f.NoiseSD() != sigma {
		return fmt.Errorf("NoiseSD()=%g, SigmaFromDelta=%g", f.NoiseSD(), sigma)
	}
	if back := fixedpoint.DeltaFromSigma(sigma); math.Abs(back-delta) > delta*1e-15 {
		return fmt.Errorf("Δ=%g → σ=%g → Δ=%g (σ round trip broken)", delta, sigma, back)
	}
	// Also cover non-power-of-two deltas: ⌈−log2(2Δ)⌉ = F exactly for
	// Δ ∈ [Δ(F), 2·Δ(F)), and a budget just below Δ(F) needs F+1.
	for _, d := range []float64{delta, delta * 1.5, delta * 1.9999} {
		if got := fixedpoint.FracBitsForDelta(d); got != fracBits {
			return fmt.Errorf("Δ=%g should need F=%d, got %d", d, fracBits, got)
		}
	}
	if got := fixedpoint.FracBitsForDelta(delta * 0.75); got != fracBits+1 {
		return fmt.Errorf("Δ=%g should need F=%d, got %d", delta*0.75, fracBits+1, got)
	}
	return nil
}

// CheckSigmaIdentity verifies the two σ notations are the same number:
// DESIGN.md writes Widrow's σ = 2Δ/√12, the fixedpoint package σ = Δ/√3.
func CheckSigmaIdentity(delta float64) error {
	a := 2 * delta / math.Sqrt(12)
	b := fixedpoint.SigmaFromDelta(delta)
	if diff := math.Abs(a - b); diff > math.Abs(a)*1e-15 {
		return fmt.Errorf("2Δ/√12 = %g vs Δ/√3 = %g (differ by %g)", a, b, diff)
	}
	return nil
}

// CheckQuantizer verifies the fast quantizers against the integer-code
// reference on every sample: Quantize must agree bit-for-bit, and
// QuantizeSlice must agree with Quantize element-wise.
func CheckQuantizer(f fixedpoint.Format, xs []float64) error {
	dst := make([]float64, len(xs))
	f.QuantizeSlice(dst, xs)
	for i, x := range xs {
		want := RefQuantize(f, x)
		if got := f.Quantize(x); !sameFloat(got, want) {
			return fmt.Errorf("%v.Quantize(%g) = %g, reference %g", f, x, got, want)
		}
		if !sameFloat(dst[i], want) {
			return fmt.Errorf("%v.QuantizeSlice(%g) = %g, reference %g", f, x, dst[i], want)
		}
	}
	return nil
}

func sameFloat(a, b float64) bool {
	return a == b || (a != a && b != b)
}

// CheckFit verifies one noise source's Eq. 5 regression against its
// raw measurement points: recomputed residuals must match the stored
// MaxRelErr, stay under maxRelErr, and the fit must explain the data
// (R² ≥ minR2). λ must be positive for the noise model to make sense.
func CheckFit(s *profile.Source, minR2, maxRelErr float64) error {
	if s.Lambda <= 0 {
		return fmt.Errorf("source %s: λ = %g must be positive", s.Name, s.Lambda)
	}
	if len(s.Deltas) != len(s.Sigmas) || len(s.Deltas) == 0 {
		return fmt.Errorf("source %s: %d deltas vs %d sigmas", s.Name, len(s.Deltas), len(s.Sigmas))
	}
	worst := 0.0
	for i := range s.Deltas {
		pred := s.Lambda*s.Sigmas[i] + s.Theta
		rel := math.Abs(pred - s.Deltas[i])
		if s.Deltas[i] != 0 {
			rel /= math.Abs(s.Deltas[i])
		}
		if rel > worst {
			worst = rel
		}
	}
	if math.Abs(worst-s.MaxRelErr) > 1e-9 {
		return fmt.Errorf("source %s: stored MaxRelErr %g, recomputed %g", s.Name, s.MaxRelErr, worst)
	}
	if worst > maxRelErr {
		return fmt.Errorf("source %s: Eq. 5 residual %g exceeds %g", s.Name, worst, maxRelErr)
	}
	if s.R2 < minR2 {
		return fmt.Errorf("source %s: R² = %g below %g", s.Name, s.R2, minR2)
	}
	return nil
}

// CheckLayerFormats verifies the Sec. II-A format derivation for one
// profiled noise source at a given (σ_YŁ, ξ): the chosen F is the
// smallest whose worst-case error fits the source's Δ budget, and I
// covers the observed magnitude range.
func CheckLayerFormats(s *profile.Source, sigmaYL, xi float64) error {
	delta := s.DeltaFor(sigmaYL, xi)
	if delta <= 0 {
		return nil // the allocator skips the source entirely
	}
	f := s.FormatFor(delta)
	if got := fixedpoint.DeltaForFracBits(f.FracBits); got > delta {
		return fmt.Errorf("source %s: F=%d gives Δ=%g above budget %g", s.Name, f.FracBits, got, delta)
	}
	if coarser := fixedpoint.DeltaForFracBits(f.FracBits - 1); coarser <= delta {
		return fmt.Errorf("source %s: F=%d wastes a bit (F−1 already fits %g)", s.Name, f.FracBits, delta)
	}
	if f.IntBits != fixedpoint.IntBitsForRange(s.MaxAbs) {
		return fmt.Errorf("source %s: I=%d, IntBitsForRange(%g)=%d", s.Name, f.IntBits, s.MaxAbs, fixedpoint.IntBitsForRange(s.MaxAbs))
	}
	if s.MaxAbs > 0 {
		if lim := math.Exp2(float64(f.IntBits - 1)); s.MaxAbs > lim {
			return fmt.Errorf("source %s: max|X| = %g exceeds 2^(I−1) = %g", s.Name, s.MaxAbs, lim)
		}
	}
	return nil
}

// CheckSearchTrace verifies the binary search's bracketing invariants
// on a completed result: the returned σ_YŁ is exactly the largest σ
// that passed, the smallest failing σ sits within tol above it, and
// every evaluation is accounted for in the trace.
func CheckSearchTrace(res *search.Result, tol float64) error {
	if res.SigmaYL <= 0 {
		return fmt.Errorf("σ_YŁ = %g must be positive", res.SigmaYL)
	}
	if len(res.Trace) == 0 || res.Evaluations != len(res.Trace) {
		return fmt.Errorf("%d evaluations vs %d trace probes", res.Evaluations, len(res.Trace))
	}
	maxPass := 0.0
	minFail := math.Inf(1)
	for _, p := range res.Trace {
		if p.Pass != (p.Accuracy >= res.TargetAcc) {
			return fmt.Errorf("probe σ=%g: pass=%v inconsistent with acc %g vs target %g", p.Sigma, p.Pass, p.Accuracy, res.TargetAcc)
		}
		if p.Pass && p.Sigma > maxPass {
			maxPass = p.Sigma
		}
		if !p.Pass && p.Sigma < minFail {
			minFail = p.Sigma
		}
	}
	if res.SigmaYL != maxPass {
		return fmt.Errorf("σ_YŁ = %g is not the largest passing probe %g", res.SigmaYL, maxPass)
	}
	if math.IsInf(minFail, 1) {
		return fmt.Errorf("no failing probe in the trace: the constraint was never bracketed")
	}
	if minFail <= res.SigmaYL {
		return fmt.Errorf("failing probe σ=%g at or below returned σ_YŁ=%g", minFail, res.SigmaYL)
	}
	if minFail-res.SigmaYL > tol*(1+1e-9) {
		return fmt.Errorf("bracket [%g, %g] wider than tol %g", res.SigmaYL, minFail, tol)
	}
	return nil
}

// ForwardTol is the documented tolerance for fast-path vs reference
// forward passes: the GEMM/arena paths reassociate sums, so results
// match the naive kernels to relative 1e-9 (measured ~1e-13 on the
// zoo; the slack covers deeper nets), not bit-for-bit.
const ForwardTol = 1e-9

// CompareTensors returns the worst combined relative/absolute
// difference max(|a−b| / max(1, |a|, |b|)) between two same-shape
// tensors, or an error on shape mismatch or non-finite values.
func CompareTensors(a, b *tensor.Tensor) (float64, error) {
	if len(a.Data) != len(b.Data) {
		return 0, fmt.Errorf("length mismatch %d vs %d", len(a.Data), len(b.Data))
	}
	worst := 0.0
	for i := range a.Data {
		av, bv := a.Data[i], b.Data[i]
		if av != av || bv != bv || math.IsInf(av, 0) || math.IsInf(bv, 0) {
			return 0, fmt.Errorf("non-finite value at %d: %g vs %g", i, av, bv)
		}
		scale := 1.0
		if m := math.Abs(av); m > scale {
			scale = m
		}
		if m := math.Abs(bv); m > scale {
			scale = m
		}
		if d := math.Abs(av-bv) / scale; d > worst {
			worst = d
		}
	}
	return worst, nil
}
