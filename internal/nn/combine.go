package nn

import (
	"fmt"

	"mupod/internal/tensor"
)

// Add sums two same-shape activations element-wise (the ResNet residual
// connection).
type Add struct{}

// Kind implements Layer.
func (Add) Kind() string { return "add" }

// OutShape implements Layer.
func (Add) OutShape(in [][]int) []int {
	if len(in) != 2 {
		panic(fmt.Sprintf("nn: add expects 2 inputs, got %d", len(in)))
	}
	for i := range in[0] {
		if in[0][i] != in[1][i] {
			panic(fmt.Sprintf("nn: add shape mismatch %v vs %v", in[0], in[1]))
		}
	}
	return append([]int(nil), in[0]...)
}

// Backward implements Layer.
func (Add) Backward(ins []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{gradOut.Clone(), gradOut.Clone()}
}

// Concat concatenates activations along the channel axis (GoogleNet
// inception and SqueezeNet fire modules).
type Concat struct{}

// Kind implements Layer.
func (Concat) Kind() string { return "concat" }

// OutShape implements Layer.
func (Concat) OutShape(in [][]int) []int {
	if len(in) < 2 {
		panic(fmt.Sprintf("nn: concat expects >=2 inputs, got %d", len(in)))
	}
	c := 0
	for _, s := range in {
		if s[0] != in[0][0] || s[2] != in[0][2] || s[3] != in[0][3] {
			panic(fmt.Sprintf("nn: concat spatial mismatch %v vs %v", s, in[0]))
		}
		c += s[1]
	}
	return []int{in[0][0], c, in[0][2], in[0][3]}
}

// Backward implements Layer, splitting the gradient back per input.
func (Concat) Backward(ins []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	os := out.Shape
	N, H, W := os[0], os[2], os[3]
	plane := H * W
	grads := make([]*tensor.Tensor, len(ins))
	for i, t := range ins {
		grads[i] = tensor.New(t.Shape...)
	}
	for n := 0; n < N; n++ {
		cOff := 0
		for i, t := range ins {
			c := t.Shape[1]
			src := gradOut.Data[(n*os[1]+cOff)*plane : (n*os[1]+cOff+c)*plane]
			dst := grads[i].Data[n*c*plane : (n+1)*c*plane]
			copy(dst, src)
			cOff += c
		}
	}
	return grads
}
