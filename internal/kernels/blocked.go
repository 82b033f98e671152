package kernels

import (
	"math"
	"sync"
	"sync/atomic"

	"mupod/internal/obs"
)

// The kernels below pack B into 4-column panels that stay resident in
// L1 while micro-kernels stream A rows through register accumulators:
// 8 rows at a time with kern8x4, then pairs with kern2x4, then one row
// with kern1x4; depthwise conv hoists the padding bounds out of the
// innermost loops and shares them across four planes; dense unrolls 4
// output rows per x sweep. Every output element is still bias + Σ terms
// in the ascending order of the scalar loops (see the package
// reduction-order contract), so any column/row decomposition produces
// identical bits.

// minParallelMACs is the work floor under which sharding costs more
// than it saves and a call runs serially.
const minParallelMACs = 1 << 15

// traceMinMACs gates GEMM spans by problem size: only GEMMs doing at
// least this many multiply-accumulates are recorded, so tiny
// replay-loop convolutions cannot flood the bounded span buffer.
const traceMinMACs = 1 << 18

// gemmChunk is the column span of one GEMM work unit (a multiple of
// the panel width nr, so every shard start stays panel-aligned).
const gemmChunk = 256

// runShards executes f(0..units-1) across at most `workers` goroutines
// pulling from an atomic counter.
func runShards(workers, units int, f func(u int)) {
	if workers > units {
		workers = units
	}
	if workers <= 1 {
		for u := 0; u < units; u++ {
			f(u)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1)) - 1
				if u >= units {
					return
				}
				f(u)
			}
		}()
	}
	wg.Wait()
}

// nr is the panel width: columns of B packed contiguously per l so the
// micro-kernel reads them as one cache line.
const nr = 4

// packPool recycles panel buffers (k·nr floats) across GEMM calls and
// shards, and im2col's padded images.
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

// GEMM computes c[i*n+j] = bias[i] + Σ_l a[i*k+l]·b[l*n+j] for i<m,
// j<n, overwriting c. bias may be nil (treated as zero). The
// per-element reduction runs in ascending l. With 2+ workers, nr-aligned
// column chunks shard across them, one packed panel buffer per chunk.
func (be Backend) GEMM(m, n, k int, a, b, bias, c []float64) {
	if be.ctx != nil && m*n*k >= traceMinMACs {
		_, sp := obs.Start(be.ctx, "kernels.gemm",
			obs.KV("impl", be.Name()), obs.KV("m", m), obs.KV("n", n), obs.KV("k", k))
		be.ctx = nil
		be.GEMM(m, n, k, a, b, bias, c)
		sp.End()
		return
	}
	countDispatch(be.impl, opGEMM)
	if be.workers < 2 || m*n*k < minParallelMACs || n < 2*nr {
		pack := getPack(k * nr)
		gemmBlockedCols(m, n, k, a, b, bias, c, 0, n, pack)
		putPack(pack)
		return
	}
	runShards(be.workers, (n+gemmChunk-1)/gemmChunk, func(u int) {
		j0 := u * gemmChunk
		pack := getPack(k * nr)
		gemmBlockedCols(m, n, k, a, b, bias, c, j0, min(j0+gemmChunk, n), pack)
		putPack(pack)
	})
}

// gemmBlockedCols computes output columns [j0, j1) of the m×n result.
// j0 must be a multiple of nr. GEMM's shards call it with nr-aligned
// sub-ranges; identical bits regardless of the split.
func gemmBlockedCols(m, n, k int, a, b, bias, c []float64, j0, j1 int, pack []float64) {
	j := j0
	for ; j+nr <= j1; j += nr {
		packPanel(k, n, b, j, pack)
		i := 0
		// The slices cover every element kern8x4 reads or writes (A rows
		// i..i+7, the panel, C rows at stride n, bias[i:i+8]): its
		// assembly body checks no bounds, and needs k ≥ 1.
		for ; k > 0 && i+8 <= m; i += 8 {
			var bb []float64
			if bias != nil {
				bb = bias[i : i+8]
			}
			kern8x4(k, a[i*k:(i+8)*k], pack[:k*nr], c[i*n+j:(i+7)*n+j+nr], n, bb)
		}
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

// kern2x4 is the pure-Go register micro-kernel: 2 rows of A against
// one packed 4-column panel. 8 accumulators + 4 panel values + 1 A
// value = 13 live floats, which fits amd64's 16 XMM registers without
// spilling (a 4×4 tile's 16 accumulators alone exhaust them). The l loop is
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

// Im2col packs the receptive fields of one [inC, H, W] image x into a
// [inC·K·K, OH·OW] column matrix (zero padding materialized). The image
// is padded once; with 2+ workers the input channels shard, each
// filling its own K·K rows.
func (be Backend) Im2col(g ConvGeom, inC int, x, cols []float64) {
	countDispatch(be.impl, opIm2col)
	xp, off := im2colSetup(g, inC, x)
	pp, rows := len(xp)/inC, g.K*g.K*len(*off)
	if be.workers < 2 || inC < 2 || inC*g.K*g.K*g.OH*g.OW < minParallelMACs {
		for ic := 0; ic < inC; ic++ {
			im2colChannel(g, xp[ic*pp:(ic+1)*pp], *off, cols[ic*rows:(ic+1)*rows])
		}
	} else {
		runShards(be.workers, inC, func(ic int) {
			im2colChannel(g, xp[ic*pp:(ic+1)*pp], *off, cols[ic*rows:(ic+1)*rows])
		})
	}
	putPack(xp)
	offPool.Put(off)
}

// offPool recycles im2col's receptive-field offset lists.
var offPool = sync.Pool{New: func() any { return new([]int) }}

// im2colSetup pads once: it copies the [inC, H, W] image x into a
// zero-bordered [inC, H+2·Pad, W+2·Pad] buffer from the pack pool, so
// every receptive field lies inside it, and lists where each output
// pixel's field starts in one padded plane: off[oy·OW+ox] =
// oy·Stride·(W+2·Pad) + ox·Stride. Release xp with putPack and off with
// offPool.Put.
func im2colSetup(g ConvGeom, inC int, x []float64) (xp []float64, off *[]int) {
	hp, wp := g.H+2*g.Pad, g.W+2*g.Pad
	xp = getPack(inC * hp * wp)
	clear(xp)
	for ic := 0; ic < inC; ic++ {
		for ih := 0; ih < g.H; ih++ {
			copy(xp[(ic*hp+ih+g.Pad)*wp+g.Pad:], x[(ic*g.H+ih)*g.W:][:g.W])
		}
	}
	off = offPool.Get().(*[]int)
	*off = (*off)[:0]
	for oy := 0; oy < g.OH; oy++ {
		for ox := 0; ox < g.OW; ox++ {
			*off = append(*off, oy*g.Stride*wp+ox*g.Stride)
		}
	}
	return xp, off
}

// im2colChannel fills the K·K column-matrix rows of one input channel
// into dst ([K·K, OH·OW]) from its padded plane xp, with no bounds test
// per element.
func im2colChannel(g ConvGeom, xp []float64, off []int, dst []float64) {
	wp := g.W + 2*g.Pad
	for kh := 0; kh < g.K; kh++ {
		for kw := 0; kw < g.K; kw++ {
			src := xp[kh*wp+kw:]
			d := dst[(kh*g.K+kw)*len(off):][:len(off)]
			for i, o := range off {
				d[i] = src[o]
			}
		}
	}
}

// DWConv computes a depthwise convolution over x [batch, channels, H,
// W] with weights w [channels, K, K] and per-channel bias into out
// [batch, channels, OH, OW]. The padding bounds are hoisted: the valid
// kh range is computed once per output row and the valid kw range once
// per output column, so the innermost loop is branch-free. Skipping
// out-of-range taps arithmetically instead of per pixel keeps the
// included terms and their order those of a bounds-checked loop. With
// 2+ workers the planes shard in groups of four.
func (be Backend) DWConv(g ConvGeom, batch, channels int, x, w, bias, out []float64) {
	countDispatch(be.impl, opDWConv)
	planes := batch * channels
	if be.workers < 2 || planes < 2 || planes*g.OH*g.OW*g.K*g.K < minParallelMACs {
		dwconvHoisted(g, 0, planes, channels, x, w, bias, out)
		return
	}
	runShards(be.workers, (planes+3)/4, func(u int) {
		dwconvHoisted(g, 4*u, min(4*u+4, planes), channels, x, w, bias, out)
	})
}

// dwconvHoisted computes channel planes [p0, p1) of the flattened
// (batch·channels) plane index space, four planes per pass: the four
// accumulators share the hoisted bounds, and a short last group repeats
// its final plane in the spare lanes, whose results only rewrite that
// plane's own values.
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

// Dense computes y[r*out+o] = bias[o] + Σ_i w[o*in+i]·x[r*in+i] for
// r<batch, o<out (bias may be nil): 4 output rows share each sweep of
// x, with one independent ascending-i accumulator per output element.
// With 2+ workers, batch rows shard when the batch is wide enough,
// otherwise output-quad chunks within each row.
func (be Backend) Dense(batch, in, out int, x, w, bias, y []float64) {
	countDispatch(be.impl, opDense)
	if be.workers < 2 || batch*in*out < minParallelMACs {
		for n := 0; n < batch; n++ {
			denseRows(n, in, out, 0, out, x, w, bias, y)
		}
		return
	}
	if batch >= be.workers {
		runShards(be.workers, batch, func(n int) {
			denseRows(n, in, out, 0, out, x, w, bias, y)
		})
		return
	}
	const outChunk = 64 // multiple of 4: quad grouping matches serial
	units := (out + outChunk - 1) / outChunk
	for n := 0; n < batch; n++ {
		runShards(be.workers, units, func(u int) {
			denseRows(n, in, out, u*outChunk, min((u+1)*outChunk, out), x, w, bias, y)
		})
	}
}

// denseRows computes outputs [o0, o1) of batch row n; Dense shards over
// output ranges.
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

// Fan runs f(0..n-1), each call writing a disjoint slice of the
// output: inline below 2 workers, otherwise sharded across them. Calls
// may run in any order and concurrently; f must not depend on ordering.
func (be Backend) Fan(n int, f func(i int)) {
	countDispatch(be.impl, opFan)
	if be.workers < 2 || n < 2 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	runShards(be.workers, n, f)
}
