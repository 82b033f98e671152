package nn

import (
	"math"

	"mupod/internal/tensor"
)

// IntoForwarder is implemented by layers that can compute their forward
// pass into a caller-provided output tensor, enabling allocation-free
// replays (internal/exec pools one output buffer per node and reuses it
// across thousands of profiling replays).
//
// Contract: out must have the layer's exact output element count for
// the given inputs (shape metadata is trusted, not checked on the hot
// path); every element of out is overwritten, so a dirty buffer is
// fine. scratch is optional reusable working memory — implementations
// that need temporaries (the conv path's im2col columns) grow it as
// needed and return it so the caller can pass it back next call.
// Implementations that need no temporaries return scratch unchanged.
//
// Layers whose math lives in internal/kernels implement
// BackendForwarder instead.
type IntoForwarder interface {
	ForwardInto(ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64
}

// growScratch returns a slice of at least n elements, reusing s's
// backing array when it is large enough.
func growScratch(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ForwardInto implements IntoForwarder.
func (Flatten) ForwardInto(ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("flatten", ins, 1)
	copy(out.Data, ins[0].Data)
	return scratch
}

// ForwardInto implements IntoForwarder: v > 0 keeps v and anything
// else (−0 and NaN included) gives +0, selected with an integer mask
// because a branch on the sign of noisy activations mispredicts.
func (ReLU) ForwardInto(ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("relu", ins, 1)
	x := ins[0].Data
	o := out.Data[:len(x)]
	for i, v := range x {
		o[i] = math.Float64frombits(math.Float64bits(v) & -b2u(v > 0))
	}
	return scratch
}

// b2u returns 1 for true and 0 for false. The compiler lowers it to a
// flag set, so a mask -b2u(cond) selects without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// maxPoolPlane pools one [H, W] plane starting at x[base] into
// out[oBase:]; shared by the serial and fanned pooling paths. A value
// replaces the best so far only when v > best, selected with a mask:
// NaN never wins and the first of equal values (+0 before −0) stays.
func maxPoolPlane(x, out []float64, base, oBase, w, oh, ow, k, stride int) {
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			best := math.Inf(-1)
			for kh := 0; kh < k; kh++ {
				row := base + (oy*stride+kh)*w + ox*stride
				for kw := 0; kw < k; kw++ {
					v := x[row+kw]
					m := -b2u(v > best)
					best = math.Float64frombits(math.Float64bits(v)&m | math.Float64bits(best)&^m)
				}
			}
			out[oBase+oy*ow+ox] = best
		}
	}
}

// avgPoolPlane is maxPoolPlane's mean-pooling twin.
func avgPoolPlane(x, out []float64, base, oBase, w, oh, ow, k, stride int, inv float64) {
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			acc := 0.0
			for kh := 0; kh < k; kh++ {
				row := base + (oy*stride+kh)*w + ox*stride
				for kw := 0; kw < k; kw++ {
					acc += x[row+kw]
				}
			}
			out[oBase+oy*ow+ox] = acc * inv
		}
	}
}

// ForwardInto implements IntoForwarder.
func (Add) ForwardInto(ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("add", ins, 2)
	a, b := ins[0].Data, ins[1].Data
	for i := range out.Data {
		out.Data[i] = a[i] + b[i]
	}
	return scratch
}

// ForwardInto implements IntoForwarder.
func (Concat) ForwardInto(ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	outC := 0
	for _, t := range ins {
		outC += t.Shape[1]
	}
	N, H, W := ins[0].Shape[0], ins[0].Shape[2], ins[0].Shape[3]
	plane := H * W
	for n := 0; n < N; n++ {
		cOff := 0
		for _, t := range ins {
			c := t.Shape[1]
			src := t.Data[n*c*plane : (n+1)*c*plane]
			dst := out.Data[(n*outC+cOff)*plane : (n*outC+cOff+c)*plane]
			copy(dst, src)
			cOff += c
		}
	}
	return scratch
}
