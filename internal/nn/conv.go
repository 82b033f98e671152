package nn

import (
	"fmt"
	"math"

	"mupod/internal/rng"
	"mupod/internal/tensor"
)

// Conv2D is a standard 2-D convolution over NCHW tensors with square
// stride and zero padding. Weights have shape [OutC, InC, K, K].
type Conv2D struct {
	InC, OutC int
	K         int // kernel size (square)
	Stride    int
	Pad       int

	W *tensor.Tensor // [OutC, InC, K, K]
	B *tensor.Tensor // [OutC]

	dW *tensor.Tensor
	dB *tensor.Tensor
}

// NewConv2D creates a convolution with zeroed parameters; call InitHe
// (or load weights) before use.
func NewConv2D(inC, outC, k, stride, pad int) *Conv2D {
	if inC <= 0 || outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: bad conv config inC=%d outC=%d k=%d stride=%d pad=%d", inC, outC, k, stride, pad))
	}
	return &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W:  tensor.New(outC, inC, k, k),
		B:  tensor.New(outC),
		dW: tensor.New(outC, inC, k, k),
		dB: tensor.New(outC),
	}
}

// InitHe fills the weights with He-normal initialization scaled by
// gain (use gain=1 normally; near 0 for residual-branch last layers so
// very deep ResNets start close to identity and train without
// batch normalization).
func (c *Conv2D) InitHe(r *rng.RNG, gain float64) {
	fanIn := float64(c.InC * c.K * c.K)
	sd := gain * math.Sqrt(2/fanIn)
	for i := range c.W.Data {
		c.W.Data[i] = r.NormalScaled(0, sd)
	}
	c.B.Zero()
}

// Kind implements Layer.
func (c *Conv2D) Kind() string { return "conv" }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in [][]int) []int {
	s := in[0]
	if s[1] != c.InC {
		panic(fmt.Sprintf("nn: conv expects %d input channels, got shape %v", c.InC, s))
	}
	oh := (s[2]+2*c.Pad-c.K)/c.Stride + 1
	ow := (s[3]+2*c.Pad-c.K)/c.Stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv output collapses: in %v k=%d s=%d p=%d", s, c.K, c.Stride, c.Pad))
	}
	return []int{s[0], c.OutC, oh, ow}
}

// MACs implements DotProduct.
func (c *Conv2D) MACs(in [][]int) int {
	os := c.OutShape([][]int{{1, in[0][1], in[0][2], in[0][3]}})
	return os[2] * os[3] * c.OutC * c.InC * c.K * c.K
}

// Params implements Parameterized.
func (c *Conv2D) Params() []Param {
	return []Param{{"W", c.W, c.dW}, {"B", c.B, c.dB}}
}

// Backward implements Layer: accumulates dW/dB and returns dX.
func (c *Conv2D) Backward(ins []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	x := ins[0]
	N, H, W := x.Shape[0], x.Shape[2], x.Shape[3]
	OH, OW := gradOut.Shape[2], gradOut.Shape[3]
	dx := tensor.New(x.Shape...)
	for n := 0; n < N; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			for oh := 0; oh < OH; oh++ {
				ihBase := oh*c.Stride - c.Pad
				for ow := 0; ow < OW; ow++ {
					iwBase := ow*c.Stride - c.Pad
					g := gradOut.Data[((n*c.OutC+oc)*OH+oh)*OW+ow]
					if g == 0 {
						continue
					}
					c.dB.Data[oc] += g
					for ic := 0; ic < c.InC; ic++ {
						xBase := ((n*c.InC + ic) * H) * W
						wBase := ((oc*c.InC + ic) * c.K) * c.K
						for kh := 0; kh < c.K; kh++ {
							ih := ihBase + kh
							if ih < 0 || ih >= H {
								continue
							}
							xRow := xBase + ih*W
							wRow := wBase + kh*c.K
							for kw := 0; kw < c.K; kw++ {
								iw := iwBase + kw
								if iw < 0 || iw >= W {
									continue
								}
								c.dW.Data[wRow+kw] += g * x.Data[xRow+iw]
								dx.Data[xRow+iw] += g * c.W.Data[wRow+kw]
							}
						}
					}
				}
			}
		}
	}
	return []*tensor.Tensor{dx}
}

// DepthwiseConv2D convolves each channel with its own K×K filter
// (MobileNet's depthwise-separable building block). Weights have shape
// [C, K, K].
type DepthwiseConv2D struct {
	C      int
	K      int
	Stride int
	Pad    int

	W *tensor.Tensor // [C, K, K]
	B *tensor.Tensor // [C]

	dW *tensor.Tensor
	dB *tensor.Tensor
}

// NewDepthwiseConv2D creates a depthwise convolution with zeroed
// parameters.
func NewDepthwiseConv2D(c, k, stride, pad int) *DepthwiseConv2D {
	if c <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: bad dwconv config c=%d k=%d stride=%d pad=%d", c, k, stride, pad))
	}
	return &DepthwiseConv2D{
		C: c, K: k, Stride: stride, Pad: pad,
		W:  tensor.New(c, k, k),
		B:  tensor.New(c),
		dW: tensor.New(c, k, k),
		dB: tensor.New(c),
	}
}

// InitHe fills the weights with He-normal initialization.
func (d *DepthwiseConv2D) InitHe(r *rng.RNG, gain float64) {
	sd := gain * math.Sqrt(2/float64(d.K*d.K))
	for i := range d.W.Data {
		d.W.Data[i] = r.NormalScaled(0, sd)
	}
	d.B.Zero()
}

// Kind implements Layer.
func (d *DepthwiseConv2D) Kind() string { return "dwconv" }

// OutShape implements Layer.
func (d *DepthwiseConv2D) OutShape(in [][]int) []int {
	s := in[0]
	if s[1] != d.C {
		panic(fmt.Sprintf("nn: dwconv expects %d channels, got shape %v", d.C, s))
	}
	oh := (s[2]+2*d.Pad-d.K)/d.Stride + 1
	ow := (s[3]+2*d.Pad-d.K)/d.Stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: dwconv output collapses: in %v k=%d s=%d p=%d", s, d.K, d.Stride, d.Pad))
	}
	return []int{s[0], d.C, oh, ow}
}

// MACs implements DotProduct.
func (d *DepthwiseConv2D) MACs(in [][]int) int {
	os := d.OutShape([][]int{{1, in[0][1], in[0][2], in[0][3]}})
	return os[2] * os[3] * d.C * d.K * d.K
}

// Params implements Parameterized.
func (d *DepthwiseConv2D) Params() []Param {
	return []Param{{"W", d.W, d.dW}, {"B", d.B, d.dB}}
}

// Backward implements Layer.
func (d *DepthwiseConv2D) Backward(ins []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	x := ins[0]
	N, H, W := x.Shape[0], x.Shape[2], x.Shape[3]
	OH, OW := gradOut.Shape[2], gradOut.Shape[3]
	dx := tensor.New(x.Shape...)
	for n := 0; n < N; n++ {
		for c := 0; c < d.C; c++ {
			xBase := ((n*d.C + c) * H) * W
			wBase := c * d.K * d.K
			for oh := 0; oh < OH; oh++ {
				ihBase := oh*d.Stride - d.Pad
				for ow := 0; ow < OW; ow++ {
					iwBase := ow*d.Stride - d.Pad
					g := gradOut.Data[((n*d.C+c)*OH+oh)*OW+ow]
					if g == 0 {
						continue
					}
					d.dB.Data[c] += g
					for kh := 0; kh < d.K; kh++ {
						ih := ihBase + kh
						if ih < 0 || ih >= H {
							continue
						}
						xRow := xBase + ih*W
						wRow := wBase + kh*d.K
						for kw := 0; kw < d.K; kw++ {
							iw := iwBase + kw
							if iw < 0 || iw >= W {
								continue
							}
							d.dW.Data[wRow+kw] += g * x.Data[xRow+iw]
							dx.Data[xRow+iw] += g * d.W.Data[wRow+kw]
						}
					}
				}
			}
		}
	}
	return []*tensor.Tensor{dx}
}
