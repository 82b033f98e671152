package nn

import (
	"fmt"
	"math"

	"mupod/internal/rng"
	"mupod/internal/tensor"
)

// Dense is a fully connected layer y = Wx + b over flattened inputs.
// Weights have shape [Out, In].
type Dense struct {
	In, Out int

	W *tensor.Tensor // [Out, In]
	B *tensor.Tensor // [Out]

	dW *tensor.Tensor
	dB *tensor.Tensor
}

// NewDense creates a fully connected layer with zeroed parameters.
func NewDense(in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: bad dense config in=%d out=%d", in, out))
	}
	return &Dense{
		In: in, Out: out,
		W:  tensor.New(out, in),
		B:  tensor.New(out),
		dW: tensor.New(out, in),
		dB: tensor.New(out),
	}
}

// InitHe fills the weights with He-normal initialization.
func (d *Dense) InitHe(r *rng.RNG, gain float64) {
	sd := gain * math.Sqrt(2/float64(d.In))
	for i := range d.W.Data {
		d.W.Data[i] = r.NormalScaled(0, sd)
	}
	d.B.Zero()
}

// Kind implements Layer.
func (d *Dense) Kind() string { return "fc" }

// OutShape implements Layer.
func (d *Dense) OutShape(in [][]int) []int {
	s := in[0]
	if shapeSize(s[1:]) != d.In {
		panic(fmt.Sprintf("nn: dense expects %d features, got shape %v", d.In, s))
	}
	return []int{s[0], d.Out}
}

// MACs implements DotProduct.
func (d *Dense) MACs(in [][]int) int { return d.In * d.Out }

// Params implements Parameterized.
func (d *Dense) Params() []Param {
	return []Param{{"W", d.W, d.dW}, {"B", d.B, d.dB}}
}

// Backward implements Layer.
func (d *Dense) Backward(ins []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	x := ins[0]
	N := x.Shape[0]
	dx := tensor.New(x.Shape...)
	for n := 0; n < N; n++ {
		xRow := x.Data[n*d.In : (n+1)*d.In]
		dxRow := dx.Data[n*d.In : (n+1)*d.In]
		for o := 0; o < d.Out; o++ {
			g := gradOut.Data[n*d.Out+o]
			if g == 0 {
				continue
			}
			d.dB.Data[o] += g
			wRow := d.W.Data[o*d.In : (o+1)*d.In]
			dwRow := d.dW.Data[o*d.In : (o+1)*d.In]
			for i, xv := range xRow {
				dwRow[i] += g * xv
				dxRow[i] += g * wRow[i]
			}
		}
	}
	return []*tensor.Tensor{dx}
}

// Flatten reshapes [N, C, H, W] (or any rank) activations into
// [N, features]. It is a pure view change.
type Flatten struct{}

// Kind implements Layer.
func (Flatten) Kind() string { return "flatten" }

// OutShape implements Layer.
func (Flatten) OutShape(in [][]int) []int {
	s := in[0]
	return []int{s[0], shapeSize(s[1:])}
}

// Backward implements Layer.
func (Flatten) Backward(ins []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	dx := gradOut.Clone().Reshape(ins[0].Shape...)
	return []*tensor.Tensor{dx}
}
