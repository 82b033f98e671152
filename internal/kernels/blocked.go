package kernels

import (
	"math"
	"sync"
)

func init() {
	Register("blocked", func(int) Backend { return blockedBackend{} })
}

// blockedBackend is the cache-blocked, register-tiled pure-Go
// implementation: GEMM packs B into 4-column panels that stay resident
// in L1 while a 2×4 micro-kernel streams A rows through 8 register
// accumulators; depthwise conv hoists the padding bounds out of the
// innermost loops and shares them across four planes; dense unrolls 4
// output rows per x sweep.
//
// Every output element is still bias + Σ terms in the same ascending
// order as the scalar code (see the package reduction-order contract),
// so any column/row decomposition — including the parallel backend's —
// produces identical bits.
type blockedBackend struct{}

// Name implements Backend.
func (blockedBackend) Name() string { return "blocked" }

// nr is the panel width: columns of B packed contiguously per l so the
// micro-kernel reads them as one cache line.
const nr = 4

// packPool recycles panel buffers (k·nr floats) across GEMM calls and
// across the parallel backend's workers.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

func getPack(n int) []float64 {
	p := packPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	return (*p)[:n]
}

func putPack(buf []float64) {
	packPool.Put(&buf)
}

// GEMM implements Backend.
func (blockedBackend) GEMM(m, n, k int, a, b, bias, c []float64) {
	countDispatch(implBlocked, opGEMM)
	pack := getPack(k * nr)
	gemmBlockedCols(m, n, k, a, b, bias, c, 0, n, pack)
	putPack(pack)
}

// gemmBlockedCols computes output columns [j0, j1) of the m×n result.
// j0 must be a multiple of nr. The parallel backend calls it with
// nr-aligned sub-ranges; identical bits regardless of the split.
func gemmBlockedCols(m, n, k int, a, b, bias, c []float64, j0, j1 int, pack []float64) {
	j := j0
	for ; j+nr <= j1; j += nr {
		packPanel(k, n, b, j, pack)
		i := 0
		for ; i+2 <= m; i += 2 {
			b0, b1 := 0.0, 0.0
			if bias != nil {
				b0, b1 = bias[i], bias[i+1]
			}
			kern2x4(k,
				a[i*k:(i+1)*k], a[(i+1)*k:(i+2)*k],
				pack,
				c[i*n+j:i*n+j+4], c[(i+1)*n+j:(i+1)*n+j+4],
				b0, b1)
		}
		for ; i < m; i++ {
			bi := 0.0
			if bias != nil {
				bi = bias[i]
			}
			kern1x4(k, a[i*k:(i+1)*k], pack, c[i*n+j:i*n+j+4], bi)
		}
	}
	// Tail columns (j1-j0 not a multiple of nr): scalar dots in the
	// same ascending-l fused-multiply-add sequence as the micro-kernel,
	// so an element lands on identical bits whether a decomposition
	// assigns it to a panel or to a tail.
	for ; j < j1; j++ {
		for i := 0; i < m; i++ {
			aRow := a[i*k : (i+1)*k]
			acc := 0.0
			if bias != nil {
				acc = bias[i]
			}
			for l, av := range aRow {
				acc = math.FMA(av, b[l*n+j], acc)
			}
			c[i*n+j] = acc
		}
	}
}

// packPanel copies columns [j, j+nr) of the k×n matrix b into pack so
// that pack[l*nr+t] = b[l*n+j+t]: the micro-kernel's per-l reads
// become one contiguous quad.
func packPanel(k, n int, b []float64, j int, pack []float64) {
	for l := 0; l < k; l++ {
		src := b[l*n+j : l*n+j+nr]
		dst := pack[l*nr : l*nr+nr]
		dst[0], dst[1], dst[2], dst[3] = src[0], src[1], src[2], src[3]
	}
}

// kern2x4 is the register micro-kernel: 2 rows of A against one packed
// 4-column panel. 8 accumulators + 4 panel values + 1 A value = 13
// live floats, which fits amd64's 16 XMM registers without spilling (a
// 4×4 tile's 16 accumulators alone exhaust them). The l loop is
// unrolled 4× through slice→array-pointer conversions so the bounds
// checks amortize to one per operand per 4 steps; the floating-point
// operation sequence per accumulator is exactly the scalar ascending-l
// order.
func kern2x4(k int, a0, a1, pack []float64, c0, c1 []float64, bias0, bias1 float64) {
	acc00, acc01, acc02, acc03 := bias0, bias0, bias0, bias0
	acc10, acc11, acc12, acc13 := bias1, bias1, bias1, bias1
	l := 0
	for ; l+4 <= k; l += 4 {
		p := (*[4 * nr]float64)(pack[nr*l:])
		x0 := (*[4]float64)(a0[l:])
		x1 := (*[4]float64)(a1[l:])

		bv0, bv1, bv2, bv3 := p[0], p[1], p[2], p[3]
		av := x0[0]
		acc00 = math.FMA(av, bv0, acc00)
		acc01 = math.FMA(av, bv1, acc01)
		acc02 = math.FMA(av, bv2, acc02)
		acc03 = math.FMA(av, bv3, acc03)
		av = x1[0]
		acc10 = math.FMA(av, bv0, acc10)
		acc11 = math.FMA(av, bv1, acc11)
		acc12 = math.FMA(av, bv2, acc12)
		acc13 = math.FMA(av, bv3, acc13)

		bv0, bv1, bv2, bv3 = p[4], p[5], p[6], p[7]
		av = x0[1]
		acc00 = math.FMA(av, bv0, acc00)
		acc01 = math.FMA(av, bv1, acc01)
		acc02 = math.FMA(av, bv2, acc02)
		acc03 = math.FMA(av, bv3, acc03)
		av = x1[1]
		acc10 = math.FMA(av, bv0, acc10)
		acc11 = math.FMA(av, bv1, acc11)
		acc12 = math.FMA(av, bv2, acc12)
		acc13 = math.FMA(av, bv3, acc13)

		bv0, bv1, bv2, bv3 = p[8], p[9], p[10], p[11]
		av = x0[2]
		acc00 = math.FMA(av, bv0, acc00)
		acc01 = math.FMA(av, bv1, acc01)
		acc02 = math.FMA(av, bv2, acc02)
		acc03 = math.FMA(av, bv3, acc03)
		av = x1[2]
		acc10 = math.FMA(av, bv0, acc10)
		acc11 = math.FMA(av, bv1, acc11)
		acc12 = math.FMA(av, bv2, acc12)
		acc13 = math.FMA(av, bv3, acc13)

		bv0, bv1, bv2, bv3 = p[12], p[13], p[14], p[15]
		av = x0[3]
		acc00 = math.FMA(av, bv0, acc00)
		acc01 = math.FMA(av, bv1, acc01)
		acc02 = math.FMA(av, bv2, acc02)
		acc03 = math.FMA(av, bv3, acc03)
		av = x1[3]
		acc10 = math.FMA(av, bv0, acc10)
		acc11 = math.FMA(av, bv1, acc11)
		acc12 = math.FMA(av, bv2, acc12)
		acc13 = math.FMA(av, bv3, acc13)
	}
	for ; l < k; l++ {
		bv0, bv1, bv2, bv3 := pack[nr*l], pack[nr*l+1], pack[nr*l+2], pack[nr*l+3]
		av := a0[l]
		acc00 = math.FMA(av, bv0, acc00)
		acc01 = math.FMA(av, bv1, acc01)
		acc02 = math.FMA(av, bv2, acc02)
		acc03 = math.FMA(av, bv3, acc03)
		av = a1[l]
		acc10 = math.FMA(av, bv0, acc10)
		acc11 = math.FMA(av, bv1, acc11)
		acc12 = math.FMA(av, bv2, acc12)
		acc13 = math.FMA(av, bv3, acc13)
	}
	c0[0], c0[1], c0[2], c0[3] = acc00, acc01, acc02, acc03
	c1[0], c1[1], c1[2], c1[3] = acc10, acc11, acc12, acc13
}

// kern1x4 handles the m%2 edge row: one A row against the panel.
func kern1x4(k int, a, pack []float64, c []float64, bias float64) {
	acc0, acc1, acc2, acc3 := bias, bias, bias, bias
	l := 0
	for ; l+4 <= k; l += 4 {
		p := (*[4 * nr]float64)(pack[nr*l:])
		x := (*[4]float64)(a[l:])
		av := x[0]
		acc0 = math.FMA(av, p[0], acc0)
		acc1 = math.FMA(av, p[1], acc1)
		acc2 = math.FMA(av, p[2], acc2)
		acc3 = math.FMA(av, p[3], acc3)
		av = x[1]
		acc0 = math.FMA(av, p[4], acc0)
		acc1 = math.FMA(av, p[5], acc1)
		acc2 = math.FMA(av, p[6], acc2)
		acc3 = math.FMA(av, p[7], acc3)
		av = x[2]
		acc0 = math.FMA(av, p[8], acc0)
		acc1 = math.FMA(av, p[9], acc1)
		acc2 = math.FMA(av, p[10], acc2)
		acc3 = math.FMA(av, p[11], acc3)
		av = x[3]
		acc0 = math.FMA(av, p[12], acc0)
		acc1 = math.FMA(av, p[13], acc1)
		acc2 = math.FMA(av, p[14], acc2)
		acc3 = math.FMA(av, p[15], acc3)
	}
	for ; l < k; l++ {
		av := a[l]
		acc0 = math.FMA(av, pack[nr*l], acc0)
		acc1 = math.FMA(av, pack[nr*l+1], acc1)
		acc2 = math.FMA(av, pack[nr*l+2], acc2)
		acc3 = math.FMA(av, pack[nr*l+3], acc3)
	}
	c[0], c[1], c[2], c[3] = acc0, acc1, acc2, acc3
}

// Im2col implements Backend.
func (blockedBackend) Im2col(g ConvGeom, inC int, x, cols []float64) {
	countDispatch(implBlocked, opIm2col)
	im2col(g, inC, x, cols)
}

// DWConv implements Backend with the padding bounds hoisted: the valid
// kh range is computed once per output row and the valid kw range once
// per output column, so the innermost loop is branch-free. Skipping
// out-of-range taps arithmetically instead of per-pixel keeps the
// included terms and their order identical to the naive loops — all
// backends are bit-identical on depthwise conv.
func (blockedBackend) DWConv(g ConvGeom, batch, channels int, x, w, bias, out []float64) {
	countDispatch(implBlocked, opDWConv)
	dwconvHoisted(g, 0, batch*channels, channels, x, w, bias, out)
}

// dwconvHoisted computes channel planes [p0, p1) of the flattened
// (batch·channels) plane index space, four planes per pass: the four
// accumulators share the hoisted bounds, and a short last group repeats
// its final plane in the spare lanes, whose results only rewrite that
// plane's own values. The parallel backend shards it in groups of four.
func dwconvHoisted(g ConvGeom, p0, p1, channels int, x, w, bias, out []float64) {
	H, W, K := g.H, g.W, g.K
	for p := p0; p < p1; p += 4 {
		var xb, wb, ob [4]int
		var bi [4]float64
		for t := range xb {
			q := min(p+t, p1-1)
			c := q % channels
			xb[t], wb[t], ob[t] = q*H*W, c*K*K, q*g.OH*g.OW
			if bias != nil {
				bi[t] = bias[c]
			}
		}
		for oh := 0; oh < g.OH; oh++ {
			ihBase := oh*g.Stride - g.Pad
			khLo, khHi := max(0, -ihBase), min(K, H-ihBase)
			for ow := 0; ow < g.OW; ow++ {
				iwBase := ow*g.Stride - g.Pad
				kwLo, kwHi := max(0, -iwBase), min(K, W-iwBase)
				a0, a1, a2, a3 := bi[0], bi[1], bi[2], bi[3]
				for kh := khLo; kh < khHi; kh++ {
					xo := (ihBase+kh)*W + iwBase
					x0, x1, x2, x3 := xb[0]+xo, xb[1]+xo, xb[2]+xo, xb[3]+xo
					w0, w1, w2, w3 := wb[0]+kh*K, wb[1]+kh*K, wb[2]+kh*K, wb[3]+kh*K
					for kw := kwLo; kw < kwHi; kw++ {
						a0 += x[x0+kw] * w[w0+kw]
						a1 += x[x1+kw] * w[w1+kw]
						a2 += x[x2+kw] * w[w2+kw]
						a3 += x[x3+kw] * w[w3+kw]
					}
				}
				o := oh*g.OW + ow
				out[ob[0]+o], out[ob[1]+o], out[ob[2]+o], out[ob[3]+o] = a0, a1, a2, a3
			}
		}
	}
}

// Dense implements Backend: 4 output rows share each sweep of x, with
// one independent ascending-i accumulator per output element — the
// same per-element order as naive, so dense results are bit-identical
// across all backends.
func (blockedBackend) Dense(batch, in, out int, x, w, bias, y []float64) {
	countDispatch(implBlocked, opDense)
	for n := 0; n < batch; n++ {
		denseRows(n, in, out, 0, out, x, w, bias, y)
	}
}

// denseRows computes outputs [o0, o1) of batch row n; the parallel
// backend shards over output ranges.
func denseRows(n, in, out, o0, o1 int, x, w, bias, y []float64) {
	xRow := x[n*in : (n+1)*in]
	o := o0
	for ; o+4 <= o1; o += 4 {
		w0 := w[o*in : (o+1)*in]
		w1 := w[(o+1)*in : (o+2)*in]
		w2 := w[(o+2)*in : (o+3)*in]
		w3 := w[(o+3)*in : (o+4)*in]
		acc0, acc1, acc2, acc3 := 0.0, 0.0, 0.0, 0.0
		if bias != nil {
			acc0, acc1, acc2, acc3 = bias[o], bias[o+1], bias[o+2], bias[o+3]
		}
		for i, xv := range xRow {
			acc0 += w0[i] * xv
			acc1 += w1[i] * xv
			acc2 += w2[i] * xv
			acc3 += w3[i] * xv
		}
		yq := y[n*out+o : n*out+o+4]
		yq[0], yq[1], yq[2], yq[3] = acc0, acc1, acc2, acc3
	}
	for ; o < o1; o++ {
		wRow := w[o*in : (o+1)*in]
		acc := 0.0
		if bias != nil {
			acc = bias[o]
		}
		for i, xv := range xRow {
			acc += wRow[i] * xv
		}
		y[n*out+o] = acc
	}
}

// Axpy implements Backend (order-preserving, 4-way unrolled).
func (blockedBackend) Axpy(alpha float64, x, y []float64) {
	countDispatch(implBlocked, opAxpy)
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Dot implements Backend. A single accumulator keeps the ascending-i
// reduction order of the contract (multi-accumulator unrolls would
// reassociate the sum).
func (blockedBackend) Dot(x, y []float64) float64 {
	countDispatch(implBlocked, opDot)
	acc := 0.0
	for i, xv := range x {
		acc += xv * y[i]
	}
	return acc
}

// Fan implements Backend: sequential (this backend is serial).
func (blockedBackend) Fan(n int, f func(i int)) {
	countDispatch(implBlocked, opFan)
	for i := 0; i < n; i++ {
		f(i)
	}
}
