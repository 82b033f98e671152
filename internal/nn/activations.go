package nn

import (
	"math"

	"mupod/internal/tensor"
)

// ReLU is max(0, x). Per Sec. III-C it scales the rounding-error s.d.
// by a constant α (more zeros after ReLU shrink the s.d. while keeping
// the mean at 0) without breaking the linear relationship the paper's
// model relies on.
type ReLU struct{}

// Kind implements Layer.
func (ReLU) Kind() string { return "relu" }

// OutShape implements Layer.
func (ReLU) OutShape(in [][]int) []int { return append([]int(nil), in[0]...) }

// Backward implements Layer, gating gradients by the sign of the input.
func (ReLU) Backward(ins []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	x := ins[0]
	dx := tensor.New(x.Shape...)
	for i, v := range x.Data {
		if v > 0 {
			dx.Data[i] = gradOut.Data[i]
		}
	}
	return []*tensor.Tensor{dx}
}

// Softmax converts logits [N, C] into per-row probabilities. Networks
// in this repository end at the pre-softmax logits (the paper's layer Ł
// output, where σ_YŁ is measured); Softmax exists for callers that want
// probabilities and for the cross-entropy trainer.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	N, C := logits.Shape[0], logits.Shape[1]
	out := tensor.New(N, C)
	for n := 0; n < N; n++ {
		row := logits.Data[n*C : (n+1)*C]
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		o := out.Data[n*C : (n+1)*C]
		for i, v := range row {
			e := math.Exp(v - max)
			o[i] = e
			sum += e
		}
		for i := range o {
			o[i] /= sum
		}
	}
	return out
}

// Argmax returns the index of the largest logit in each row of a
// [N, C] tensor (top-1 prediction).
func Argmax(logits *tensor.Tensor) []int {
	N, C := logits.Shape[0], logits.Shape[1]
	out := make([]int, N)
	for n := 0; n < N; n++ {
		best, arg := math.Inf(-1), 0
		for c := 0; c < C; c++ {
			if v := logits.Data[n*C+c]; v > best {
				best, arg = v, c
			}
		}
		out[n] = arg
	}
	return out
}
