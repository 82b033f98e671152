// Package nn is a from-scratch CNN engine: the substrate the paper's
// precision-optimization pipeline runs on (the paper used Caffe). It
// provides the layer types found in the eight evaluated architectures
// (convolution, depthwise convolution, fully connected, ReLU, max/avg
// pooling, residual add, channel concat) arranged in a DAG Network,
// their forward math and gradients, and ForwardAll, the allocating
// pass that returns every node's activation for training and for the
// cached exact activations replays start from. Inference passes, exact
// or with noise injected, run in internal/exec on pooled buffers
// through ForwardLayer.
//
// Layers are stateless: the forward pass only writes the caller's
// output buffer and Backward is a pure function of its arguments, which
// lets the profiler replay arbitrary sub-graphs from cached activations
// without worrying about hidden layer state.
package nn

import (
	"fmt"

	"mupod/internal/tensor"
)

// Layer is one computational node type. Implementations must be
// stateless. Each also implements exactly one of BackendForwarder and
// IntoForwarder for its forward pass (see ForwardLayer), and Backward
// must derive everything it needs from ins/out/gradOut.
type Layer interface {
	// Kind returns a short lowercase identifier ("conv", "relu", ...).
	Kind() string
	// OutShape computes the output shape from the input shapes.
	OutShape(in [][]int) []int
	// Backward returns the gradient with respect to each input, given
	// the inputs, the forward output and the gradient of the loss with
	// respect to that output. Parameterized layers must also accumulate
	// their parameter gradients.
	Backward(ins []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor
}

// Param is a named trainable parameter with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// Parameterized is implemented by layers with trainable parameters.
type Parameterized interface {
	Params() []Param
}

// DotProduct is implemented by the layers the paper analyzes and
// assigns input bitwidths to: convolution, depthwise convolution and
// fully connected layers — "Convolution and fully connected layers use
// the same dot product operation" (Sec. III).
type DotProduct interface {
	// MACs returns the number of multiply-accumulate operations the
	// layer performs for ONE image with the given input shapes
	// (batch dimension excluded).
	MACs(in [][]int) int
}

func shapeSize(s []int) int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

func checkInputs(kind string, ins []*tensor.Tensor, want int) {
	if len(ins) != want {
		panic(fmt.Sprintf("nn: %s layer expects %d input(s), got %d", kind, want, len(ins)))
	}
}
