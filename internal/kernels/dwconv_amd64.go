//go:build amd64.v3

package kernels

// newDWPack prepares DWConv for the AVX2 body (dwconv_amd64.s), which
// computes groups of four consecutive planes in the four lanes of a
// YMM: the planes the Go body groups, sharing its hoisted bounds. It
// packs two tables, in buffers from the pools when perCall is set
// (release returns them) and in its own otherwise:
//   - lanes: a bias row (+0 when bias is nil), then one row per tap
//     kk = kh·K+kw. Each row holds the channels' values in order and
//     then those of channels 0, 1 and 2 again, so a group's channels
//     c0, c0+1, c0+2 and c0+3 (mod channels) load as one vector at
//     column c0, even across an image boundary.
//   - taps: for each output pixel in row-major order, its count of
//     valid taps, then per tap in ascending (kh, kw) order its byte
//     offset into an input plane and into lanes. The ranges are the Go
//     body's hoisted bounds, so the same taps are skipped.
func newDWPack(g ConvGeom, channels int, w, bias []float64, perCall bool) dwPack {
	d := dwPack{g: g, channels: channels, w: w, bias: bias}
	if g.OH < 1 || g.OW < 1 {
		return d // no output: planes runs the Go body, which writes none
	}
	fp, ip := &packPool, &offPool
	if !perCall {
		fp, ip = nil, nil
	}
	K, ls := g.K, channels+3
	d.lanes = pooled[float64](fp, (1+K*K)*ls)
	lanes := *d.lanes
	for c := 0; c < ls; c++ {
		src := c % channels
		lanes[c] = 0
		if bias != nil {
			lanes[c] = bias[src]
		}
		for kk, v := range w[src*K*K : (src+1)*K*K] {
			lanes[(1+kk)*ls+c] = v
		}
	}
	rows, cols := 0, 0
	for oh := 0; oh < g.OH; oh++ {
		lo, hi := dwRange(oh, g.Stride, g.Pad, K, g.H)
		rows += max(0, hi-lo)
	}
	for ow := 0; ow < g.OW; ow++ {
		lo, hi := dwRange(ow, g.Stride, g.Pad, K, g.W)
		cols += max(0, hi-lo)
	}
	d.taps = pooled[int](ip, g.OH*g.OW+2*rows*cols)
	taps, i := *d.taps, 0
	for oh := 0; oh < g.OH; oh++ {
		khLo, khHi := dwRange(oh, g.Stride, g.Pad, K, g.H)
		for ow := 0; ow < g.OW; ow++ {
			kwLo, kwHi := dwRange(ow, g.Stride, g.Pad, K, g.W)
			n := i
			i++
			for kh := khLo; kh < khHi; kh++ {
				for kw := kwLo; kw < kwHi; kw++ {
					taps[i] = 8 * ((oh*g.Stride-g.Pad+kh)*g.W + ow*g.Stride - g.Pad + kw)
					taps[i+1] = 8 * (1 + kh*K + kw) * ls
					i += 2
				}
			}
			taps[n] = (i - n - 1) / 2
		}
	}
	return d
}

// dwRange is the valid tap range [lo, hi) of output row (or column) o
// over an input extent of n: the Go body's hoisted bounds.
func dwRange(o, stride, pad, k, n int) (lo, hi int) {
	base := o*stride - pad
	return max(0, -base), min(k, n-base)
}

// planes computes planes [p0, p1): whole groups of four with the AVX2
// body and a short rest with the Go body, whose lanes are independent,
// so either body gives every plane the same bits.
func (d *dwPack) planes(x, out []float64, p0, p1 int, relu bool) {
	g := d.g
	hw, ohow := g.H*g.W, g.OH*g.OW
	if q := (p1 - p0) / 4; q > 0 && d.taps != nil {
		dwconvQuads(x[p0*hw:(p0+4*q)*hw], *d.lanes, out[p0*ohow:(p0+4*q)*ohow], *d.taps,
			q, p0%d.channels, d.channels, hw, ohow, relu)
		p0 += 4 * q
	}
	if p0 < p1 {
		dwconvHoisted(g, p0, p1, d.channels, x, d.w, d.bias, out, relu)
	}
}

// release returns a per-call pack's tables to the pools.
func (d *dwPack) release() {
	if d.taps != nil {
		packPool.Put(d.lanes)
		offPool.Put(d.taps)
	}
}

// dwconvQuads computes quads groups of four consecutive planes from x
// into out (both starting at the first group's first plane), the first
// group on channels c0..c0+3 mod channels, from the lanes and taps
// tables newDWPack packs. Every lane runs the Go body's sum: the bias,
// then per valid tap in ascending (kh, kw) order VMULPD then VADDPD,
// each rounding once as the Go body's product and sum do, and the ReLU
// epilogue when relu is set. It checks no bounds: planes passes slices
// that cover every plane it touches.
//
//go:noescape
func dwconvQuads(x, lanes, out []float64, taps []int, quads, c0, channels, hw, ohow int, relu bool)
