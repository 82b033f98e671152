// Package refcheck is the differential self-check subsystem: slow,
// obviously-correct float64 reference implementations of every kernel
// the pipeline optimizes (naive convolution/pooling/dense/GEMM forward,
// a scalar integer-code quantizer, a brute-force grid solver for the
// Eq. 8 allocation), plus a library of numerical invariants tying the
// fast paths back to the paper's math. The selfcheck entry point (Run,
// surfaced as cmd/mupod-selfcheck) sweeps both over the testnet zoo.
//
// The reference kernels deliberately share no loops with internal/nn:
// each is written from the layer definition with explicit index
// arithmetic, so an indexing or accumulation bug in the optimized
// ForwardInto/GEMM paths cannot hide in a shared helper.
package refcheck

import (
	"fmt"
	"math"

	"mupod/internal/fixedpoint"
	"mupod/internal/nn"
	"mupod/internal/tensor"
)

// at4 reads x[n,c,h,w] from an NCHW tensor with explicit strides.
func at4(x *tensor.Tensor, n, c, h, w int) float64 {
	C, H, W := x.Shape[1], x.Shape[2], x.Shape[3]
	return x.Data[((n*C+c)*H+h)*W+w]
}

// MatMulRef is the naive O(m·n·k) reference GEMM: out[i,j] = Σ_l
// a[i,l]·b[l,j] with a plain left-to-right accumulation. The optimized
// conv kernel is checked against convolution computed this way (and
// against the direct reference loops).
func MatMulRef(m, n, k int, a, b []float64) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += a[i*k+l] * b[l*n+j]
			}
			out[i*n+j] = s
		}
	}
	return out
}

func convRef(c *nn.Conv2D, x *tensor.Tensor) *tensor.Tensor {
	N, H, W := x.Shape[0], x.Shape[2], x.Shape[3]
	oh := (H+2*c.Pad-c.K)/c.Stride + 1
	ow := (W+2*c.Pad-c.K)/c.Stride + 1
	out := tensor.New(N, c.OutC, oh, ow)
	for n := 0; n < N; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := c.B.Data[oc]
					for ic := 0; ic < c.InC; ic++ {
						for kh := 0; kh < c.K; kh++ {
							ih := oy*c.Stride - c.Pad + kh
							if ih < 0 || ih >= H {
								continue
							}
							for kw := 0; kw < c.K; kw++ {
								iw := ox*c.Stride - c.Pad + kw
								if iw < 0 || iw >= W {
									continue
								}
								wv := c.W.Data[((oc*c.InC+ic)*c.K+kh)*c.K+kw]
								s += wv * at4(x, n, ic, ih, iw)
							}
						}
					}
					out.Data[((n*c.OutC+oc)*oh+oy)*ow+ox] = s
				}
			}
		}
	}
	return out
}

func dwconvRef(d *nn.DepthwiseConv2D, x *tensor.Tensor) *tensor.Tensor {
	N, H, W := x.Shape[0], x.Shape[2], x.Shape[3]
	oh := (H+2*d.Pad-d.K)/d.Stride + 1
	ow := (W+2*d.Pad-d.K)/d.Stride + 1
	out := tensor.New(N, d.C, oh, ow)
	for n := 0; n < N; n++ {
		for ch := 0; ch < d.C; ch++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := d.B.Data[ch]
					for kh := 0; kh < d.K; kh++ {
						ih := oy*d.Stride - d.Pad + kh
						if ih < 0 || ih >= H {
							continue
						}
						for kw := 0; kw < d.K; kw++ {
							iw := ox*d.Stride - d.Pad + kw
							if iw < 0 || iw >= W {
								continue
							}
							s += d.W.Data[(ch*d.K+kh)*d.K+kw] * at4(x, n, ch, ih, iw)
						}
					}
					out.Data[((n*d.C+ch)*oh+oy)*ow+ox] = s
				}
			}
		}
	}
	return out
}

func denseRef(d *nn.Dense, x *tensor.Tensor) *tensor.Tensor {
	N := x.Shape[0]
	// y = x·Wᵀ through the reference GEMM, bias added afterwards.
	wt := make([]float64, d.In*d.Out)
	for o := 0; o < d.Out; o++ {
		for i := 0; i < d.In; i++ {
			wt[i*d.Out+o] = d.W.Data[o*d.In+i]
		}
	}
	prod := MatMulRef(N, d.Out, d.In, x.Data, wt)
	out := tensor.New(N, d.Out)
	for n := 0; n < N; n++ {
		for o := 0; o < d.Out; o++ {
			out.Data[n*d.Out+o] = prod[n*d.Out+o] + d.B.Data[o]
		}
	}
	return out
}

func maxPoolRef(p *nn.MaxPool2D, x *tensor.Tensor) *tensor.Tensor {
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (H-p.K)/p.Stride + 1
	ow := (W-p.K)/p.Stride + 1
	out := tensor.New(N, C, oh, ow)
	for n := 0; n < N; n++ {
		for c := 0; c < C; c++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := math.Inf(-1)
					for kh := 0; kh < p.K; kh++ {
						for kw := 0; kw < p.K; kw++ {
							if v := at4(x, n, c, oy*p.Stride+kh, ox*p.Stride+kw); v > best {
								best = v
							}
						}
					}
					out.Data[((n*C+c)*oh+oy)*ow+ox] = best
				}
			}
		}
	}
	return out
}

func avgPoolRef(p *nn.AvgPool2D, x *tensor.Tensor) *tensor.Tensor {
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (H-p.K)/p.Stride + 1
	ow := (W-p.K)/p.Stride + 1
	out := tensor.New(N, C, oh, ow)
	inv := 1 / float64(p.K*p.K)
	for n := 0; n < N; n++ {
		for c := 0; c < C; c++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for kh := 0; kh < p.K; kh++ {
						for kw := 0; kw < p.K; kw++ {
							s += at4(x, n, c, oy*p.Stride+kh, ox*p.Stride+kw)
						}
					}
					out.Data[((n*C+c)*oh+oy)*ow+ox] = s * inv
				}
			}
		}
	}
	return out
}

func gapRef(x *tensor.Tensor) *tensor.Tensor {
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := tensor.New(N, C)
	inv := 1 / float64(H*W)
	for n := 0; n < N; n++ {
		for c := 0; c < C; c++ {
			s := 0.0
			for h := 0; h < H; h++ {
				for w := 0; w < W; w++ {
					s += at4(x, n, c, h, w)
				}
			}
			out.Data[n*C+c] = s * inv
		}
	}
	return out
}

func concatRef(ins []*tensor.Tensor) *tensor.Tensor {
	N, H, W := ins[0].Shape[0], ins[0].Shape[2], ins[0].Shape[3]
	total := 0
	for _, t := range ins {
		total += t.Shape[1]
	}
	out := tensor.New(N, total, H, W)
	for n := 0; n < N; n++ {
		off := 0
		for _, t := range ins {
			for c := 0; c < t.Shape[1]; c++ {
				for h := 0; h < H; h++ {
					for w := 0; w < W; w++ {
						out.Data[((n*total+off+c)*H+h)*W+w] = at4(t, n, c, h, w)
					}
				}
			}
			off += t.Shape[1]
		}
	}
	return out
}

// ForwardLayer computes one layer's forward pass with the naive
// reference kernel for its concrete type. It panics on a layer kind it
// has no reference for — a new layer kind must grow a reference here
// before the self-check can vouch for it.
func ForwardLayer(l nn.Layer, ins []*tensor.Tensor) *tensor.Tensor {
	switch v := l.(type) {
	case *nn.Conv2D:
		return convRef(v, ins[0])
	case *nn.DepthwiseConv2D:
		return dwconvRef(v, ins[0])
	case *nn.Dense:
		return denseRef(v, ins[0])
	case *nn.MaxPool2D:
		return maxPoolRef(v, ins[0])
	case *nn.AvgPool2D:
		return avgPoolRef(v, ins[0])
	case nn.GlobalAvgPool:
		return gapRef(ins[0])
	case nn.ReLU:
		x := ins[0]
		out := tensor.New(x.Shape...)
		for i, val := range x.Data {
			if val > 0 {
				out.Data[i] = val
			}
		}
		return out
	case nn.Flatten:
		x := ins[0]
		out := tensor.New(x.Shape[0], x.Len()/x.Shape[0])
		copy(out.Data, x.Data)
		return out
	case nn.Add:
		a, b := ins[0], ins[1]
		out := tensor.New(a.Shape...)
		for i := range a.Data {
			out.Data[i] = a.Data[i] + b.Data[i]
		}
		return out
	case nn.Concat:
		return concatRef(ins)
	default:
		panic(fmt.Sprintf("refcheck: no reference kernel for layer kind %q", l.Kind()))
	}
}

// ForwardNetwork runs a full forward pass through the reference
// kernels, following the network's topological node order, and returns
// the logits. Each node in inject (nil = exact) computes on its
// injector's output, written into a fresh tensor from its first input,
// so the activation other consumers read stays untouched.
func ForwardNetwork(net *nn.Network, x *tensor.Tensor, inject map[int]nn.Injector) *tensor.Tensor {
	acts := make([]*tensor.Tensor, len(net.Nodes))
	acts[0] = x
	for _, nd := range net.Nodes[1:] {
		ins := make([]*tensor.Tensor, len(nd.Inputs))
		for i, id := range nd.Inputs {
			ins[i] = acts[id]
		}
		if fn, ok := inject[nd.ID]; ok {
			dst := tensor.New(ins[0].Shape...)
			fn(dst, ins[0])
			ins[0] = dst
		}
		acts[nd.ID] = ForwardLayer(nd.Layer, ins)
	}
	return acts[len(acts)-1]
}

// RefQuantize is the scalar reference quantizer, written in integer
// code space: a W-bit signed format holds codes in [−2^(W−1), 2^(W−1)−1]
// and represents code·2^−F. Round-half-away rounding, saturation at the
// code range, NaN→0 and ±Inf→range limits follow directly. It must
// agree bit-for-bit with fixedpoint.Format.Quantize on every input.
func RefQuantize(f fixedpoint.Format, x float64) float64 {
	width := f.IntBits + f.FracBits
	if width <= 0 {
		return 0 // degenerate: only zero is representable
	}
	if x != x {
		return 0 // NaN has no fixed-point encoding
	}
	step := math.Exp2(float64(-f.FracBits))
	maxCode := math.Exp2(float64(width-1)) - 1
	minCode := -math.Exp2(float64(width - 1))
	code := math.Round(x / step) // ±Inf stays ±Inf and saturates below
	if code > maxCode {
		code = maxCode
	}
	if code < minCode {
		code = minCode
	}
	return code * step
}
