package nn

import (
	"mupod/internal/kernels"
	"mupod/internal/tensor"
)

// BackendForwarder is implemented by layers whose forward pass is dense
// math delegated to a kernels.Backend — conv (im2col+GEMM), depthwise
// conv, fully connected, and the pooling layers (plane fan-out). The
// scratch contract is identical to IntoForwarder; the extra parameter
// selects the compute implementation per call instead of per process,
// so concurrent sessions can run different kernel policies.
type BackendForwarder interface {
	ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64
}

// convGeom builds the kernel-layer geometry for one conv/pool call.
func convGeom(h, w, k, stride, pad, oh, ow int) kernels.ConvGeom {
	return kernels.ConvGeom{H: h, W: w, K: k, Stride: stride, Pad: pad, OH: oh, OW: ow}
}

// ForwardIntoOn implements BackendForwarder: the convolution as
// OutC×(InC·K·K) times (InC·K·K)×(OH·OW) per image, with the im2col
// column matrix carried in scratch instead of allocated per call. A
// 1×1, stride-1, unpadded conv's column matrix is the image itself, so
// the image goes to GEMM directly.
func (c *Conv2D) ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("conv", ins, 1)
	x := ins[0]
	N, H, W := x.Shape[0], x.Shape[2], x.Shape[3]
	os := c.OutShape([][]int{x.Shape})
	OH, OW := os[2], os[3]
	g := convGeom(H, W, c.K, c.Stride, c.Pad, OH, OW)
	plane := OH * OW
	ckk := c.InC * c.K * c.K
	direct := c.K == 1 && c.Stride == 1 && c.Pad == 0
	if !direct {
		scratch = growScratch(scratch, ckk*plane)
	}
	imgIn := c.InC * H * W
	imgOut := c.OutC * plane
	for n := 0; n < N; n++ {
		cols := x.Data[n*imgIn : (n+1)*imgIn]
		if !direct {
			be.Im2col(g, c.InC, cols, scratch)
			cols = scratch
		}
		be.GEMM(c.OutC, plane, ckk, c.W.Data, cols, c.B.Data, out.Data[n*imgOut:(n+1)*imgOut])
	}
	return scratch
}

// ForwardIntoOn implements BackendForwarder.
func (d *DepthwiseConv2D) ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("dwconv", ins, 1)
	x := ins[0]
	N, H, W := x.Shape[0], x.Shape[2], x.Shape[3]
	os := d.OutShape([][]int{x.Shape})
	g := convGeom(H, W, d.K, d.Stride, d.Pad, os[2], os[3])
	be.DWConv(g, N, d.C, x.Data, d.W.Data, d.B.Data, out.Data)
	return scratch
}

// ForwardIntoOn implements BackendForwarder.
func (d *Dense) ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("fc", ins, 1)
	x := ins[0]
	be.Dense(x.Shape[0], d.In, d.Out, x.Data, d.W.Data, d.B.Data, out.Data)
	return scratch
}

// ForwardIntoOn implements BackendForwarder: each of the N·C planes is
// an independent fan unit, so a "parallel" backend shards pooling
// across its intra-op workers (per-plane loops are order-free —
// identical bits at any worker count).
func (p *MaxPool2D) ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("maxpool", ins, 1)
	x := ins[0]
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	os := p.OutShape([][]int{x.Shape})
	OH, OW := os[2], os[3]
	be.Fan(N*C, func(pl int) {
		base := pl * H * W
		oBase := pl * OH * OW
		maxPoolPlane(x.Data, out.Data, base, oBase, W, OH, OW, p.K, p.Stride)
	})
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
