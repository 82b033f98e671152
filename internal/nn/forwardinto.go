package nn

import (
	"mupod/internal/kernels"
	"mupod/internal/tensor"
)

// IntoForwarder is implemented by the layers with no kernel math
// (ReLU, flatten, add, concat): they compute their forward pass into a
// caller-provided output tensor, enabling allocation-free replays
// (internal/exec pools one output buffer per node and reuses it across
// thousands of profiling replays).
//
// Contract: out must have the layer's exact output element count for
// the given inputs (shape metadata is trusted, not checked on the hot
// path); every element of out is overwritten, so a dirty buffer is
// fine. scratch is reusable working memory a layer may grow and return
// for the caller to pass back next call. No layer needs any now (the
// conv kernel draws its buffers from internal/kernels' pools), so every
// implementation returns scratch unchanged; the parameter stays because
// the benchmark harness's per-node timing passes it.
//
// Layers whose math lives in internal/kernels implement
// BackendForwarder instead. ReLU is one of these layers, but
// internal/exec's pooled passes skip its ForwardInto where it is the
// only consumer of a conv or depthwise conv: the kernel applies the
// same mask at its store (ForwardPackedOn with relu set).
type IntoForwarder interface {
	ForwardInto(ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64
}

// ForwardInto implements IntoForwarder.
func (Flatten) ForwardInto(ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("flatten", ins, 1)
	copy(out.Data, ins[0].Data)
	return scratch
}

// ForwardInto implements IntoForwarder: v > 0 keeps v and anything
// else (−0 and NaN included) gives +0, kernels.ReLU's bits, which the
// conv and depthwise kernels' ReLU epilogue applies too.
func (ReLU) ForwardInto(ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("relu", ins, 1)
	x := ins[0].Data
	o := out.Data[:len(x)]
	for i, v := range x {
		o[i] = kernels.ReLU(v)
	}
	return scratch
}

// avgPoolPlane pools one [H, W] plane starting at x[base] into
// out[oBase:], each output the window's row-major sum times inv; shared
// by the serial and fanned pooling paths.
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
