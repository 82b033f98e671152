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

// TestForwardLayerDispatch pins which forward interface each layer
// kind implements, exactly one of the two, and that ForwardLayer runs
// the kernel layers on the backend it is given and the rest through
// ForwardInto, bitwise.
func TestForwardLayerDispatch(t *testing.T) {
	r := rng.New(34)
	conv := NewConv2D(2, 3, 3, 1, 1)
	conv.InitHe(r, 1)
	dw := NewDepthwiseConv2D(2, 3, 1, 1)
	dw.InitHe(r, 1)
	fc := NewDense(2*6*6, 4)
	fc.InitHe(r, 1)
	x := randTensor(r, 2, 2, 6, 6)
	y := randTensor(r, 2, 2, 6, 6)
	be := kernels.MustNew(kernels.Policy{Impl: "parallel", IntraWorkers: 2})
	for _, tc := range []struct {
		l       Layer
		ins     []*tensor.Tensor
		backend bool
	}{
		{conv, []*tensor.Tensor{x}, true},
		{dw, []*tensor.Tensor{x}, true},
		{fc, []*tensor.Tensor{x}, true},
		{NewMaxPool2D(2, 2), []*tensor.Tensor{x}, true},
		{NewAvgPool2D(2, 2), []*tensor.Tensor{x}, true},
		{GlobalAvgPool{}, []*tensor.Tensor{x}, true},
		{ReLU{}, []*tensor.Tensor{x}, false},
		{Flatten{}, []*tensor.Tensor{x}, false},
		{Add{}, []*tensor.Tensor{x, y}, false},
		{Concat{}, []*tensor.Tensor{x, y}, false},
	} {
		bf, isBackend := tc.l.(BackendForwarder)
		inf, isInto := tc.l.(IntoForwarder)
		if isBackend != tc.backend || isInto == tc.backend {
			t.Fatalf("%s: BackendForwarder %v, IntoForwarder %v; want exactly the %v one", tc.l.Kind(), isBackend, isInto, tc.backend)
		}
		want := forward(tc.l, tc.ins...)
		want.Fill(math.NaN())
		if tc.backend {
			bf.ForwardIntoOn(be, tc.ins, want, nil)
		} else {
			inf.ForwardInto(tc.ins, want, nil)
		}
		got := tensor.New(want.Shape...)
		got.Fill(math.NaN())
		ForwardLayer(be, tc.l, tc.ins, got)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: ForwardLayer and the layer's own forward disagree at element %d", tc.l.Kind(), i)
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
// GEMM on its column matrix bit for bit, under every policy. The test
// builds the matrix itself: the input at stride 1 without padding (which
// the kernel reads in place), its strided samples at stride 2, and a
// zero border at pad 1.
func TestConv1x1IsGEMMOnInput(t *testing.T) {
	r := rng.New(37)
	const inC, outC, hw, batch = 32, 24, 8, 2
	x := randTensor(r, batch, inC, hw, hw)
	for _, geo := range []struct{ stride, pad int }{{1, 0}, {2, 0}, {1, 1}} {
		c := NewConv2D(inC, outC, 1, geo.stride, geo.pad)
		c.InitHe(r, 1)
		for i := range c.B.Data {
			c.B.Data[i] = r.Uniform(-0.5, 0.5)
		}
		os := c.OutShape([][]int{x.Shape})
		oh, ow := os[2], os[3]
		plane := oh * ow
		cols := make([]float64, batch*inC*plane)
		for i := range cols {
			n, ic, p := i/(inC*plane), i/plane%inC, i%plane
			ih, iw := p/ow*geo.stride-geo.pad, p%ow*geo.stride-geo.pad
			if ih >= 0 && ih < hw && iw >= 0 && iw < hw {
				cols[i] = x.At4(n, ic, ih, iw)
			}
		}
		for _, name := range kernels.Names() {
			for _, workers := range []int{1, 3} {
				be := kernels.MustNew(kernels.Policy{Impl: name, IntraWorkers: workers})
				got := tensor.New(os...)
				c.ForwardIntoOn(be, []*tensor.Tensor{x}, got, nil)
				want := make([]float64, outC*plane)
				for n := 0; n < batch; n++ {
					be.GEMM(outC, plane, inC, c.W.Data, cols[n*inC*plane:(n+1)*inC*plane], c.B.Data, want)
					for i, w := range want {
						if math.Float64bits(got.Data[n*outC*plane+i]) != math.Float64bits(w) {
							t.Fatalf("%+v %s/w%d image %d element %d: conv %v, GEMM on the column matrix %v",
								geo, name, workers, n, i, got.Data[n*outC*plane+i], w)
						}
					}
				}
			}
		}
	}
}

// BenchmarkConvBackends times 3×3 convs from 16×16 down to the 4×4 and
// 2×2 maps the zoo's profiling replays run, and one 1×1 conv, at batch
// 1; then, suffixed "-b8", the same shapes at batch 8 (the batch the
// offline profiling replays run) plus a ragged 13×13 map (169 pixels)
// and a 1×1 map.
func BenchmarkConvBackends(b *testing.B) {
	r := rng.New(36)
	type shape struct{ c, hw, k, batch int }
	shapes := []shape{{8, 16, 3, 1}, {32, 16, 3, 1}, {64, 8, 3, 1}, {32, 4, 3, 1}, {32, 2, 3, 1}, {32, 8, 1, 1}}
	for _, sh := range shapes {
		sh.batch = 8
		shapes = append(shapes, sh)
	}
	shapes = append(shapes, shape{64, 13, 3, 8}, shape{32, 1, 3, 8})
	for _, cse := range shapes {
		c := NewConv2D(cse.c, cse.c, cse.k, 1, cse.k/2)
		c.InitHe(r, 1)
		x := randTensor(r, cse.batch, cse.c, cse.hw, cse.hw)
		ins := []*tensor.Tensor{x}
		out := tensor.New(c.OutShape([][]int{x.Shape})...)
		suffix := ""
		if cse.k != 3 {
			suffix = fmt.Sprintf("-k%d", cse.k)
		}
		if cse.batch != 1 {
			suffix += fmt.Sprintf("-b%d", cse.batch)
		}
		for _, name := range kernels.Names() {
			be := kernels.MustNew(kernels.Policy{Impl: name})
			b.Run(fmt.Sprintf("%s-c%d-hw%d%s", name, cse.c, cse.hw, suffix), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.ForwardIntoOn(be, ins, out, nil)
				}
			})
		}
	}
}
