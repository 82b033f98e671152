//go:build amd64.v3

package kernels

// maxPool runs MaxPool's AVX2 body on 2×2 windows at stride 2, every
// max-pool of the zoo, and the Go body on any other window.
func maxPool(g ConvGeom, p0, p1 int, x, out []float64) {
	if g.K != 2 || g.Stride != 2 || p0 >= p1 || g.OH < 1 || g.OW < 1 || 2*g.OH > g.H || 2*g.OW > g.W {
		maxPoolPlanes(g, p0, p1, x, out)
		return
	}
	hw, ohow := g.H*g.W, g.OH*g.OW
	maxPool2x2(x[p0*hw:p1*hw], out[p0*ohow:p1*ohow], p1-p0, g.W, g.OH, g.OW, hw)
}

// maxPool2x2 pools planes [h, w] planes (h·w = hw) of x with 2×2
// windows at stride 2 into out [planes, oh, ow]. Each output is
// VMAXPD(v, best) over its window in row-major order from −Inf, which
// returns v only when v > best: maxPoolPlanes' bits. Four output
// pixels share each vector, then two, then one. It checks no bounds:
// maxPool passes slices that cover every plane and 2·oh ≤ h, 2·ow ≤ w.
//
//go:noescape
func maxPool2x2(x, out []float64, planes, w, oh, ow, hw int)
