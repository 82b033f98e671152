package nn

import (
	"fmt"
	"math"
	"testing"

	"mupod/internal/kernels"
	"mupod/internal/rng"
	"mupod/internal/tensor"
)

// TestConvBackendsAgree sweeps kernel/stride/pad/channel combinations
// across every kernel policy: all must give the same bits (the
// disjoint-shard contract that lets caches ignore the policy).
func TestConvBackendsAgree(t *testing.T) {
	r := rng.New(33)
	cases := []struct{ inC, outC, k, stride, pad, h, w int }{
		{1, 1, 1, 1, 0, 4, 4},
		{3, 8, 3, 1, 1, 8, 8},
		{2, 4, 3, 2, 1, 7, 7},
		{4, 2, 5, 1, 2, 6, 6},
		{2, 3, 2, 2, 0, 8, 6},
		{8, 8, 3, 1, 1, 5, 5},
	}
	for _, cse := range cases {
		c := NewConv2D(cse.inC, cse.outC, cse.k, cse.stride, cse.pad)
		c.InitHe(r, 1)
		for i := range c.B.Data {
			c.B.Data[i] = r.Uniform(-0.5, 0.5)
		}
		x := randTensor(r, 2, cse.inC, cse.h, cse.w)
		outs := map[string]*tensor.Tensor{}
		for _, name := range kernels.Names() {
			be := kernels.MustNew(kernels.Policy{Impl: name, IntraWorkers: 3})
			out := tensor.New(c.OutShape([][]int{x.Shape})...)
			c.ForwardIntoOn(be, []*tensor.Tensor{x}, out, nil)
			outs[name] = out
		}
		for i := range outs["blocked"].Data {
			if outs["parallel"].Data[i] != outs["blocked"].Data[i] {
				t.Fatalf("%+v: parallel not bit-identical to blocked at element %d", cse, i)
			}
		}
	}
}

// TestForwardMatchesForwardIntoOnDefault pins each kernel layer's
// Forward to ForwardIntoOn on the default backend, bitwise.
func TestForwardMatchesForwardIntoOnDefault(t *testing.T) {
	r := rng.New(34)
	conv := NewConv2D(2, 3, 3, 1, 1)
	conv.InitHe(r, 1)
	dw := NewDepthwiseConv2D(2, 3, 1, 1)
	dw.InitHe(r, 1)
	fc := NewDense(2*6*6, 4)
	fc.InitHe(r, 1)
	x := randTensor(r, 2, 2, 6, 6)
	for _, l := range []Layer{conv, dw, fc, NewMaxPool2D(2, 2), NewAvgPool2D(2, 2), GlobalAvgPool{}} {
		ins := []*tensor.Tensor{x}
		a := l.Forward(ins)
		b := tensor.New(a.Shape...)
		l.(BackendForwarder).ForwardIntoOn(kernels.Default(), ins, b, nil)
		for i := range a.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
				t.Fatalf("%s: Forward and default-backend ForwardIntoOn disagree at element %d", l.Kind(), i)
			}
		}
	}
}

// TestPoolAndDenseBackendsBitIdentical: dense, depthwise and pooling
// layers give the same bits under every policy — including fanned
// pooling at workers>1.
func TestPoolAndDenseBackendsBitIdentical(t *testing.T) {
	r := rng.New(35)
	x := randTensor(r, 2, 4, 8, 8)
	layers := []struct {
		name string
		l    BackendForwarder
		in   *tensor.Tensor
	}{
		{"dwconv", NewDepthwiseConv2D(4, 3, 1, 1), x},
		{"maxpool", NewMaxPool2D(2, 2), x},
		{"avgpool", NewAvgPool2D(2, 2), x},
		{"gap", GlobalAvgPool{}, x},
		{"fc", NewDense(16, 5), randTensor(r, 3, 16)},
	}
	if d := layers[0].l.(*DepthwiseConv2D); true {
		d.InitHe(r, 1)
		for i := range d.B.Data {
			d.B.Data[i] = r.Uniform(-0.5, 0.5)
		}
	}
	if fc := layers[4].l.(*Dense); true {
		fc.InitHe(r, 1)
	}
	for _, lc := range layers {
		shaper := lc.l.(Layer)
		var ref *tensor.Tensor
		for _, name := range kernels.Names() {
			be := kernels.MustNew(kernels.Policy{Impl: name, IntraWorkers: 4})
			out := tensor.New(shaper.OutShape([][]int{lc.in.Shape})...)
			lc.l.ForwardIntoOn(be, []*tensor.Tensor{lc.in}, out, nil)
			if ref == nil {
				ref = out
				continue
			}
			for i := range ref.Data {
				if out.Data[i] != ref.Data[i] {
					t.Fatalf("%s: backend %s not bit-identical at element %d", lc.name, name, i)
				}
			}
		}
	}
}

// TestConv1x1IsGEMMOnInput: a 1×1 conv through ForwardIntoOn equals
// GEMM on the im2col'd input bit for bit, under every policy. Stride 1
// without padding takes the direct path, which skips im2col; stride 2
// and padding must not.
func TestConv1x1IsGEMMOnInput(t *testing.T) {
	r := rng.New(37)
	const inC, outC, hw, batch = 32, 24, 8, 2
	x := randTensor(r, batch, inC, hw, hw)
	const img = inC * hw * hw
	for _, geo := range []struct{ stride, pad int }{{1, 0}, {2, 0}, {1, 1}} {
		c := NewConv2D(inC, outC, 1, geo.stride, geo.pad)
		c.InitHe(r, 1)
		for i := range c.B.Data {
			c.B.Data[i] = r.Uniform(-0.5, 0.5)
		}
		os := c.OutShape([][]int{x.Shape})
		g := convGeom(hw, hw, 1, geo.stride, geo.pad, os[2], os[3])
		plane := os[2] * os[3]
		for _, name := range kernels.Names() {
			for _, workers := range []int{1, 3} {
				be := kernels.MustNew(kernels.Policy{Impl: name, IntraWorkers: workers})
				got := tensor.New(os...)
				c.ForwardIntoOn(be, []*tensor.Tensor{x}, got, nil)
				cols := make([]float64, inC*plane)
				want := make([]float64, outC*plane)
				for n := 0; n < batch; n++ {
					be.Im2col(g, inC, x.Data[n*img:(n+1)*img], cols)
					be.GEMM(outC, plane, inC, c.W.Data, cols, c.B.Data, want)
					for i, w := range want {
						if math.Float64bits(got.Data[n*outC*plane+i]) != math.Float64bits(w) {
							t.Fatalf("%+v %s/w%d image %d element %d: conv %v, GEMM on im2col %v",
								geo, name, workers, n, i, got.Data[n*outC*plane+i], w)
						}
					}
				}
			}
		}
	}
}

// BenchmarkConvBackends times 3×3 convs from 16×16 down to the 4×4 and
// 2×2 maps the zoo's profiling replays run, and one 1×1 conv.
func BenchmarkConvBackends(b *testing.B) {
	r := rng.New(36)
	for _, cse := range []struct{ c, hw, k int }{{8, 16, 3}, {32, 16, 3}, {64, 8, 3}, {32, 4, 3}, {32, 2, 3}, {32, 8, 1}} {
		c := NewConv2D(cse.c, cse.c, cse.k, 1, cse.k/2)
		c.InitHe(r, 1)
		x := randTensor(r, 1, cse.c, cse.hw, cse.hw)
		ins := []*tensor.Tensor{x}
		out := tensor.New(c.OutShape([][]int{x.Shape})...)
		suffix := ""
		if cse.k != 3 {
			suffix = fmt.Sprintf("-k%d", cse.k)
		}
		for _, name := range kernels.Names() {
			be := kernels.MustNew(kernels.Policy{Impl: name})
			var scratch []float64
			b.Run(fmt.Sprintf("%s-c%d-hw%d%s", name, cse.c, cse.hw, suffix), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					scratch = c.ForwardIntoOn(be, ins, out, scratch)
				}
			})
		}
	}
}
