package kernels

import (
	"sync"

	"mupod/internal/obs"
)

// The conv kernel computes output tiles of 8 channels × 4 pixels with
// convTile. Weights are packed once per call into blocks of 8 output
// channels; activations are read in place from the zero-padded image
// through two offset tables, so no column matrix and no activation
// panel is ever built. Every output element is bias + Σ_l w·x in
// ascending l (the package's reduction-order contract), whichever
// tile, shard or ragged block computes it.

// gemmChunk is the pixel span of one parallel work unit (a multiple of
// the tile width 4, so only the last tile of an image can be ragged).
const gemmChunk = 256

// traceMinMACs gates GEMM spans by problem size: only GEMMs and conv
// images doing at least this many multiply-accumulates are recorded, so
// tiny replay-loop convolutions cannot flood the bounded span buffer.
const traceMinMACs = 1 << 18

// packPool and offPool recycle the per-call packed weights, padded
// images and offset tables.
var (
	packPool = sync.Pool{New: func() any { return new([]float64) }}
	offPool  = sync.Pool{New: func() any { return new([]int) }}
)

// pooled returns a buffer of n elements from pool, whose entries are
// *[]T; put it back with pool.Put.
func pooled[T any](pool *sync.Pool, n int) *[]T {
	p := pool.Get().(*[]T)
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return p
}

// GEMM computes c[i*n+j] = bias[i] + Σ_l a[i*k+l]·b[l*n+j] for i<m,
// j<n, overwriting c. bias may be nil (treated as zero). It runs the
// conv kernel as a 1×1 conv of m output channels over the k-channel,
// 1×n image b, so each element is the same ascending-l FMA chain.
func (be Backend) GEMM(m, n, k int, a, b, bias, c []float64) {
	g := ConvGeom{H: 1, W: n, K: 1, Stride: 1, OH: 1, OW: n}
	be.Conv(g, 1, k, m, b, a, bias, c, false)
}

// Conv computes the convolution of x [batch, inC, H, W] with weights w
// [outC, inC, K, K] and bias (nil for zero) into out [batch, outC, OH,
// OW], overwriting it. Each output is bias[o] + Σ_l w[o][l]·col[l][p]
// over its im2col column, padding zeros included, as one ascending-l
// fused-multiply-add chain. With relu set, the kernel applies the ReLU
// epilogue to each sum before storing it (see ReLU), so out holds the
// bits of the plain call followed by a ReLU pass. The weights are
// packed once per call; each image is padded once and counts as one
// GEMM in the dispatch counters and spans. With 2+ workers the
// 256-pixel chunks of each image shard across them.
func (be Backend) Conv(g ConvGeom, batch, inC, outC int, x, w, bias, out []float64, relu bool) {
	cv := newConvCall(g, inC, outC, w, bias)
	cv.relu = relu
	imgIn, imgOut := inC*g.H*g.W, outC*cv.n
	for i := 0; i < batch; i++ {
		be.convImage(&cv, x[i*imgIn:(i+1)*imgIn], out[i*imgOut:(i+1)*imgOut])
	}
	cv.release()
}

// convCall is the per-call state of Conv: the packed weights, the two
// offset tables and the padded image buffer.
type convCall struct {
	g         ConvGeom
	inC, outC int
	k, n      int // reduction length inC·K·K and output pixels OH·OW
	// wp holds blocks of 8 output channels, (k+1)·8 floats each: a bias
	// row, then wp[b][1+l][r] = w[8b+r][l]. Rows past outC are zero.
	wp *[]float64
	// loff[l] is where reduction step l = (ic, kh, kw) reads in the
	// padded image, relative to a pixel's offset off[p]; off runs to a
	// multiple of 4 by repeating its last entry. Both ascend.
	loff, off *[]int
	xp        *[]float64 // the padded image; nil when Pad is 0
	relu      bool       // apply the ReLU epilogue before each store
}

// newConvCall packs the weights and builds the offset tables into the
// padded image [inC, Hp, Wp] (Hp = H+2·Pad, Wp = W+2·Pad):
// loff[l] = ic·Hp·Wp + kh·Wp + kw and off[oy·OW+ox] = oy·S·Wp + ox·S.
// Release it with release.
func newConvCall(g ConvGeom, inC, outC int, w, bias []float64) convCall {
	cv := convCall{g: g, inC: inC, outC: outC, k: inC * g.K * g.K, n: g.OH * g.OW}
	cv.wp = packWeights(outC, cv.k, w, bias)
	padH, padW := g.H+2*g.Pad, g.W+2*g.Pad
	cv.loff = pooled[int](&offPool, cv.k)
	loff := *cv.loff
	l := 0
	for ic := 0; ic < inC; ic++ {
		for kh := 0; kh < g.K; kh++ {
			for kw := 0; kw < g.K; kw++ {
				loff[l] = (ic*padH+kh)*padW + kw
				l++
			}
		}
	}
	cv.off = pooled[int](&offPool, (cv.n+3)&^3)
	off := *cv.off
	p := 0
	for oy := 0; oy < g.OH; oy++ {
		for ox := 0; ox < g.OW; ox++ {
			off[p] = (oy*padW + ox) * g.Stride
			p++
		}
	}
	for ; p < len(off); p++ {
		off[p] = off[cv.n-1]
	}
	if g.Pad > 0 {
		cv.xp = pooled[float64](&packPool, inC*padH*padW)
		clear(*cv.xp) // the border; each image rewrites only the interior
	}
	return cv
}

func (cv *convCall) release() {
	packPool.Put(cv.wp)
	if cv.xp != nil {
		packPool.Put(cv.xp)
	}
	offPool.Put(cv.loff)
	offPool.Put(cv.off)
}

// packWeights packs w ([outC, k]) and bias into blocks of 8 output
// channels, a bias row (+0 when nil) then wp[b][1+l][r] = w[8b+r][l],
// with zero rows past outC. Eight rows are copied per pass, so each l
// writes one contiguous 64-byte group. The pack is not cached across
// calls: allocations and training rewrite the weights in place.
func packWeights(outC, k int, w, bias []float64) *[]float64 {
	blk := (k + 1) * 8
	p := pooled[float64](&packPool, (outC+7)/8*blk)
	wp := *p
	for r0 := 0; r0 < outC; r0 += 8 {
		dst := wp[r0/8*blk:][:blk]
		rows := min(8, outC-r0)
		clear(dst[:8])
		if bias != nil {
			copy(dst, bias[r0:r0+rows])
		}
		if rows < 8 {
			clear(dst[8:])
			for r := 0; r < rows; r++ {
				for l, v := range w[(r0+r)*k:][:k] {
					dst[8+8*l+r] = v
				}
			}
			continue
		}
		w0 := w[r0*k:][:k]
		w1, w2, w3 := w[(r0+1)*k:][:len(w0)], w[(r0+2)*k:][:len(w0)], w[(r0+3)*k:][:len(w0)]
		w4, w5, w6 := w[(r0+4)*k:][:len(w0)], w[(r0+5)*k:][:len(w0)], w[(r0+6)*k:][:len(w0)]
		w7 := w[(r0+7)*k:][:len(w0)]
		for l := range w0 {
			d := (*[8]float64)(dst[8+8*l:])
			d[0], d[1], d[2], d[3] = w0[l], w1[l], w2[l], w3[l]
			d[4], d[5], d[6], d[7] = w4[l], w5[l], w6[l], w7[l]
		}
	}
	return p
}

// convImage computes one image: it pads x into the call's buffer and
// runs the tiles, sharding 256-pixel chunks across the workers.
func (be Backend) convImage(cv *convCall, x, out []float64) {
	if be.ctx != nil && cv.outC*cv.n*cv.k >= traceMinMACs {
		_, sp := obs.Start(be.ctx, "kernels.gemm",
			obs.KV("impl", be.Name()), obs.KV("m", cv.outC), obs.KV("n", cv.n), obs.KV("k", cv.k))
		be.ctx = nil
		be.convImage(cv, x, out)
		sp.End()
		return
	}
	countDispatch(be.impl, opGEMM)
	if cv.xp != nil {
		g, xp := cv.g, *cv.xp
		padH, padW := g.H+2*g.Pad, g.W+2*g.Pad
		for ic := 0; ic < cv.inC; ic++ {
			for ih := 0; ih < g.H; ih++ {
				copy(xp[(ic*padH+ih+g.Pad)*padW+g.Pad:], x[(ic*g.H+ih)*g.W:][:g.W])
			}
		}
		x = xp
	}
	if be.workers < 2 || cv.outC*cv.n*cv.k < minParallelMACs || cv.n < 8 {
		cv.tiles(x, out, 0, cv.n)
		return
	}
	shared := *cv // a copy, so only this path moves call state to the heap
	runShards(be.workers, (cv.n+gemmChunk-1)/gemmChunk, func(u int) {
		j0 := u * gemmChunk
		shared.tiles(x, out, j0, min(j0+gemmChunk, shared.n))
	})
}

// tiles computes output pixels [j0, j1) of one image from its padded
// form x into c ([outC, n]); j0 is a multiple of 4. A ragged block (the
// last outC mod 8 channels or n mod 4 pixels) runs the same kernel into
// a stack tile, of which the valid part is copied out: its packed
// weight rows are zero and its spare pixels repeat the last offset, so
// every read stays in bounds. k = 0 leaves the bias, through the
// epilogue when relu is set.
func (cv *convCall) tiles(x, c []float64, j0, j1 int) {
	k, n, blk, wpAll := cv.k, cv.n, (cv.k+1)*8, *cv.wp
	if k == 0 {
		for o := 0; o < cv.outC; o++ {
			v := wpAll[o/8*blk+o%8]
			if cv.relu {
				v = ReLU(v)
			}
			for j := j0; j < j1; j++ {
				c[o*n+j] = v
			}
		}
		return
	}
	loff, last := *cv.loff, (*cv.loff)[k-1]
	var tile [32]float64
	for j := j0; j < j1; j += 4 {
		off := (*cv.off)[j : j+4]
		// The slices cover every element convTile reads or writes (it
		// checks no bounds): the ascending tables put its last read at
		// last+off[3].
		xs := x[:last+off[3]+1]
		cols := min(4, j1-j)
		for r0 := 0; r0 < cv.outC; r0 += 8 {
			wp := wpAll[r0/8*blk:][:blk]
			rows := min(8, cv.outC-r0)
			if rows == 8 && cols == 4 {
				convTile(k, wp, xs, loff, off, c[r0*n+j:(r0+7)*n+j+4], n, cv.relu)
				continue
			}
			convTile(k, wp, xs, loff, off, tile[:], 4, cv.relu)
			for r := 0; r < rows; r++ {
				copy(c[(r0+r)*n+j:][:cols], tile[4*r:])
			}
		}
	}
}
