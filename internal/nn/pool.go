package nn

import (
	"fmt"
	"math"

	"mupod/internal/kernels"
	"mupod/internal/tensor"
)

// MaxPool2D is a max pooling layer with square window and stride.
// Per Sec. III-C of the paper, max pooling does not change the rounding
// error s.d. (the output error is a sub-sample of the input error).
type MaxPool2D struct {
	K      int
	Stride int
}

// NewMaxPool2D creates a max pooling layer.
func NewMaxPool2D(k, stride int) *MaxPool2D {
	if k <= 0 || stride <= 0 {
		panic(fmt.Sprintf("nn: bad maxpool config k=%d stride=%d", k, stride))
	}
	return &MaxPool2D{K: k, Stride: stride}
}

// Kind implements Layer.
func (p *MaxPool2D) Kind() string { return "maxpool" }

// OutShape implements Layer.
func (p *MaxPool2D) OutShape(in [][]int) []int {
	s := in[0]
	oh := (s[2]-p.K)/p.Stride + 1
	ow := (s[3]-p.K)/p.Stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: maxpool output collapses: in %v k=%d s=%d", s, p.K, p.Stride))
	}
	return []int{s[0], s[1], oh, ow}
}

// Forward implements Layer.
func (p *MaxPool2D) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	checkInputs("maxpool", ins, 1)
	out := tensor.New(p.OutShape([][]int{ins[0].Shape})...)
	p.ForwardIntoOn(kernels.Default(), ins, out, nil)
	return out
}

// Backward implements Layer, routing each output gradient to the argmax
// input position (recomputed from ins; ties go to the first maximum).
func (p *MaxPool2D) Backward(ins []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	x := ins[0]
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	OH, OW := gradOut.Shape[2], gradOut.Shape[3]
	dx := tensor.New(x.Shape...)
	for n := 0; n < N; n++ {
		for c := 0; c < C; c++ {
			base := ((n*C + c) * H) * W
			for oh := 0; oh < OH; oh++ {
				for ow := 0; ow < OW; ow++ {
					best := math.Inf(-1)
					argIdx := -1
					for kh := 0; kh < p.K; kh++ {
						row := base + (oh*p.Stride+kh)*W + ow*p.Stride
						for kw := 0; kw < p.K; kw++ {
							if v := x.Data[row+kw]; v > best {
								best = v
								argIdx = row + kw
							}
						}
					}
					dx.Data[argIdx] += gradOut.Data[((n*C+c)*OH+oh)*OW+ow]
				}
			}
		}
	}
	return []*tensor.Tensor{dx}
}

// AvgPool2D is an average pooling layer. Per Sec. III-C it behaves like
// a dot product with constant weights 1/(K·K) for error propagation.
type AvgPool2D struct {
	K      int
	Stride int
}

// NewAvgPool2D creates an average pooling layer.
func NewAvgPool2D(k, stride int) *AvgPool2D {
	if k <= 0 || stride <= 0 {
		panic(fmt.Sprintf("nn: bad avgpool config k=%d stride=%d", k, stride))
	}
	return &AvgPool2D{K: k, Stride: stride}
}

// Kind implements Layer.
func (p *AvgPool2D) Kind() string { return "avgpool" }

// OutShape implements Layer.
func (p *AvgPool2D) OutShape(in [][]int) []int {
	s := in[0]
	oh := (s[2]-p.K)/p.Stride + 1
	ow := (s[3]-p.K)/p.Stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: avgpool output collapses: in %v k=%d s=%d", s, p.K, p.Stride))
	}
	return []int{s[0], s[1], oh, ow}
}

// Forward implements Layer.
func (p *AvgPool2D) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	checkInputs("avgpool", ins, 1)
	out := tensor.New(p.OutShape([][]int{ins[0].Shape})...)
	p.ForwardIntoOn(kernels.Default(), ins, out, nil)
	return out
}

// Backward implements Layer.
func (p *AvgPool2D) Backward(ins []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	x := ins[0]
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	OH, OW := gradOut.Shape[2], gradOut.Shape[3]
	dx := tensor.New(x.Shape...)
	inv := 1 / float64(p.K*p.K)
	for n := 0; n < N; n++ {
		for c := 0; c < C; c++ {
			base := ((n*C + c) * H) * W
			for oh := 0; oh < OH; oh++ {
				for ow := 0; ow < OW; ow++ {
					g := gradOut.Data[((n*C+c)*OH+oh)*OW+ow] * inv
					for kh := 0; kh < p.K; kh++ {
						row := base + (oh*p.Stride+kh)*W + ow*p.Stride
						for kw := 0; kw < p.K; kw++ {
							dx.Data[row+kw] += g
						}
					}
				}
			}
		}
	}
	return []*tensor.Tensor{dx}
}

// GlobalAvgPool averages each channel over its full spatial extent,
// producing [N, C] (the NiN/GoogleNet/SqueezeNet classification head).
type GlobalAvgPool struct{}

// Kind implements Layer.
func (GlobalAvgPool) Kind() string { return "gap" }

// OutShape implements Layer.
func (GlobalAvgPool) OutShape(in [][]int) []int {
	s := in[0]
	return []int{s[0], s[1]}
}

// Forward implements Layer.
func (GlobalAvgPool) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	checkInputs("gap", ins, 1)
	out := tensor.New(ins[0].Shape[0], ins[0].Shape[1])
	GlobalAvgPool{}.ForwardIntoOn(kernels.Default(), ins, out, nil)
	return out
}

// Backward implements Layer.
func (GlobalAvgPool) Backward(ins []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	x := ins[0]
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	dx := tensor.New(x.Shape...)
	inv := 1 / float64(H*W)
	for n := 0; n < N; n++ {
		for c := 0; c < C; c++ {
			g := gradOut.Data[n*C+c] * inv
			base := ((n*C + c) * H) * W
			for i := 0; i < H*W; i++ {
				dx.Data[base+i] = g
			}
		}
	}
	return []*tensor.Tensor{dx}
}
