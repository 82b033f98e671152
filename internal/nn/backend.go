package nn

import (
	"mupod/internal/kernels"
	"mupod/internal/tensor"
)

// BackendForwarder is implemented by layers whose forward pass is dense
// math delegated to a kernels.Backend — conv (Backend.Conv), depthwise
// conv, fully connected, and the pooling layers (plane fan-out). The
// out and scratch contract is identical to IntoForwarder; the extra
// parameter selects the compute implementation per call instead of per
// process, so concurrent sessions can run different kernel policies.
type BackendForwarder interface {
	ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64
}

// ForwardLayer computes l's forward pass on ins into out, on be when l
// is a BackendForwarder and with ForwardInto when it is an
// IntoForwarder; AddNode admits no other layer. out follows the
// IntoForwarder contract. Every float pass runs its layers through it:
// internal/exec's pooled passes, ForwardAll, and the float nodes of
// internal/fxnet's integer datapath. The one exception is a conv or
// depthwise conv and the ReLU that internal/exec fuses with it, which
// run as one ForwardReLUOn call.
func ForwardLayer(be kernels.Backend, l Layer, ins []*tensor.Tensor, out *tensor.Tensor) {
	if f, ok := l.(BackendForwarder); ok {
		f.ForwardIntoOn(be, ins, out, nil)
		return
	}
	l.(IntoForwarder).ForwardInto(ins, out, nil)
}

// convGeom builds the kernel-layer geometry for one conv/pool call.
func convGeom(h, w, k, stride, pad, oh, ow int) kernels.ConvGeom {
	return kernels.ConvGeom{H: h, W: w, K: k, Stride: stride, Pad: pad, OH: oh, OW: ow}
}

// ForwardIntoOn implements BackendForwarder: one Backend.Conv call over
// the batch, so the weights are packed once per layer call.
func (c *Conv2D) ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	c.forward(be, ins, out, false)
	return scratch
}

// ForwardReLUOn writes into out the bits of ForwardIntoOn followed by
// ReLU.ForwardInto, in one Backend.Conv call with the ReLU epilogue and
// without the intermediate tensor. out follows the IntoForwarder
// contract.
func (c *Conv2D) ForwardReLUOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor) {
	c.forward(be, ins, out, true)
}

func (c *Conv2D) forward(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, relu bool) {
	checkInputs("conv", ins, 1)
	x := ins[0]
	os := c.OutShape([][]int{x.Shape})
	g := convGeom(x.Shape[2], x.Shape[3], c.K, c.Stride, c.Pad, os[2], os[3])
	be.Conv(g, x.Shape[0], c.InC, c.OutC, x.Data, c.W.Data, c.B.Data, out.Data, relu)
}

// ForwardIntoOn implements BackendForwarder.
func (d *DepthwiseConv2D) ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	d.forward(be, ins, out, false)
	return scratch
}

// ForwardReLUOn is ForwardIntoOn followed by ReLU.ForwardInto in one
// Backend.DWConv call with the ReLU epilogue, as for Conv2D.
func (d *DepthwiseConv2D) ForwardReLUOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor) {
	d.forward(be, ins, out, true)
}

func (d *DepthwiseConv2D) forward(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, relu bool) {
	checkInputs("dwconv", ins, 1)
	x := ins[0]
	N, H, W := x.Shape[0], x.Shape[2], x.Shape[3]
	os := d.OutShape([][]int{x.Shape})
	g := convGeom(H, W, d.K, d.Stride, d.Pad, os[2], os[3])
	be.DWConv(g, N, d.C, x.Data, d.W.Data, d.B.Data, out.Data, relu)
}

// ForwardIntoOn implements BackendForwarder.
func (d *Dense) ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("fc", ins, 1)
	x := ins[0]
	be.Dense(x.Shape[0], d.In, d.Out, x.Data, d.W.Data, d.B.Data, out.Data)
	return scratch
}

// ForwardIntoOn implements BackendForwarder: one Backend.MaxPool call
// over the N·C planes, which a "parallel" backend shards across its
// intra-op workers (per-plane loops are order-free — identical bits at
// any worker count).
func (p *MaxPool2D) ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("maxpool", ins, 1)
	x := ins[0]
	os := p.OutShape([][]int{x.Shape})
	g := convGeom(x.Shape[2], x.Shape[3], p.K, p.Stride, 0, os[2], os[3])
	be.MaxPool(g, x.Shape[0]*x.Shape[1], x.Data, out.Data)
	return scratch
}

// ForwardIntoOn implements BackendForwarder.
func (p *AvgPool2D) ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("avgpool", ins, 1)
	x := ins[0]
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	os := p.OutShape([][]int{x.Shape})
	OH, OW := os[2], os[3]
	inv := 1 / float64(p.K*p.K)
	be.Fan(N*C, func(pl int) {
		base := pl * H * W
		oBase := pl * OH * OW
		avgPoolPlane(x.Data, out.Data, base, oBase, W, OH, OW, p.K, p.Stride, inv)
	})
	return scratch
}

// ForwardIntoOn implements BackendForwarder.
func (GlobalAvgPool) ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("gap", ins, 1)
	x := ins[0]
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	plane := H * W
	inv := 1 / float64(plane)
	be.Fan(N*C, func(pl int) {
		base := pl * plane
		acc := 0.0
		for i := 0; i < plane; i++ {
			acc += x.Data[base+i]
		}
		out.Data[pl] = acc * inv
	})
	return scratch
}
