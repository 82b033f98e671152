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
// internal/fxnet's integer datapath. The one exception is internal/exec,
// which runs conv and depthwise conv layers through ForwardPackedOn: a
// node's own layer from the pack its Plan built, each with the ReLU it
// fuses.
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

// ForwardIntoOn implements BackendForwarder: ForwardPackedOn with no
// pack and no ReLU, so the weights are packed once per layer call.
func (c *Conv2D) ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	c.ForwardPackedOn(be, nil, ins, out, false)
	return scratch
}

// Pack packs c's weights and bias for inputs of per-image shape in
// ([InC, H, W]) with kernels.PackConv, for ForwardPackedOn. The pack
// holds a copy: build it after the last write to the weights.
func (c *Conv2D) Pack(in []int) kernels.Pack {
	return kernels.PackConv(c.geom(append([]int{1}, in...)), c.InC, c.OutC, c.W.Data, c.B.Data)
}

// ForwardPackedOn computes the conv of ins[0] into out on be, from pk,
// c's Pack for ins[0]'s per-image shape, or from a pack made for this
// call when pk is nil (Backend.Conv). With relu set the kernel applies
// the ReLU epilogue, so out holds the bits of the conv followed by
// ReLU.ForwardInto without the intermediate tensor. out follows the
// IntoForwarder contract.
func (c *Conv2D) ForwardPackedOn(be kernels.Backend, pk kernels.Pack, ins []*tensor.Tensor, out *tensor.Tensor, relu bool) {
	checkInputs("conv", ins, 1)
	x := ins[0]
	if pk == nil {
		g := c.geom(x.Shape)
		be.Conv(g, x.Shape[0], c.InC, c.OutC, x.Data, c.W.Data, c.B.Data, out.Data, relu)
		return
	}
	be.RunPack(pk, x.Shape[0], x.Data, out.Data, relu)
}

// geom is c's kernel geometry on input shape s ([N, C, H, W]).
func (c *Conv2D) geom(s []int) kernels.ConvGeom {
	os := c.OutShape([][]int{s})
	return convGeom(s[2], s[3], c.K, c.Stride, c.Pad, os[2], os[3])
}

// ForwardIntoOn implements BackendForwarder: ForwardPackedOn with no
// pack and no ReLU.
func (d *DepthwiseConv2D) ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	d.ForwardPackedOn(be, nil, ins, out, false)
	return scratch
}

// Pack prepares d's weights and bias for inputs of per-image shape in
// ([C, H, W]) with kernels.PackDW, for ForwardPackedOn. The pack holds
// a copy: build it after the last write to the weights.
func (d *DepthwiseConv2D) Pack(in []int) kernels.Pack {
	return kernels.PackDW(d.geom(append([]int{1}, in...)), d.C, d.W.Data, d.B.Data)
}

// ForwardPackedOn is Conv2D's, on Backend.DWConv.
func (d *DepthwiseConv2D) ForwardPackedOn(be kernels.Backend, pk kernels.Pack, ins []*tensor.Tensor, out *tensor.Tensor, relu bool) {
	checkInputs("dwconv", ins, 1)
	x := ins[0]
	if pk == nil {
		g := d.geom(x.Shape)
		be.DWConv(g, x.Shape[0], d.C, x.Data, d.W.Data, d.B.Data, out.Data, relu)
		return
	}
	be.RunPack(pk, x.Shape[0], x.Data, out.Data, relu)
}

// geom is d's kernel geometry on input shape s ([N, C, H, W]).
func (d *DepthwiseConv2D) geom(s []int) kernels.ConvGeom {
	os := d.OutShape([][]int{s})
	return convGeom(s[2], s[3], d.K, d.Stride, d.Pad, os[2], os[3])
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
