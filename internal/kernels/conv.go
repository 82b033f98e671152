package kernels

import (
	"sync"

	"mupod/internal/obs"
)

// The conv kernel computes output tiles of 8 channels × 4 pixels with
// convTile. A conv's pack holds its weights in blocks of 8 output
// channels and two offset tables; activations are read in place from
// the zero-padded image through the tables, so no column matrix and no
// activation panel is ever built. Every output element is bias + Σ_l
// w·x in ascending l (the package's reduction-order contract), whichever
// tile, shard or ragged block computes it.

// gemmChunk is the pixel span of one parallel work unit (a multiple of
// the tile width 4, so only the last tile of an image can be ragged).
const gemmChunk = 256

// traceMinMACs gates GEMM spans by problem size: only GEMMs and conv
// images doing at least this many multiply-accumulates are recorded, so
// tiny replay-loop convolutions cannot flood the bounded span buffer.
const traceMinMACs = 1 << 18

// packPool and offPool recycle the padded images and the packs Conv
// and DWConv build per call.
var (
	packPool = sync.Pool{New: func() any { return new([]float64) }}
	offPool  = sync.Pool{New: func() any { return new([]int) }}
)

// pooled returns a buffer of n elements from pool, whose entries are
// *[]T (put it back with pool.Put), or a new one when pool is nil.
func pooled[T any](pool *sync.Pool, n int) *[]T {
	if pool == nil {
		s := make([]T, n)
		return &s
	}
	p := pool.Get().(*[]T)
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return p
}

// Pack is one conv or depthwise conv layer prepared for its kernel at
// one input geometry: PackConv's packed weights and offset tables, or
// PackDW's lane table and tap list. RunPack computes the layer from it
// for any batch. Conv and DWConv build the same state per call and run
// the same code, so a Pack gives their bits. A Pack is a snapshot: it
// holds copies of the weights and bias, so a later write to them does
// not reach it. It is only read once built, so any number of
// goroutines may run it at once; the padded image a conv needs is
// per-call scratch.
type Pack interface {
	run(be Backend, batch int, x, out []float64, relu bool)
}

// RunPack computes the layer pk was packed from over x [batch, C, H,
// W] into out [batch, outC, OH, OW], overwriting it, with the ReLU
// epilogue when relu is set: the bits of the Conv or DWConv call with
// the weights, bias and geometry pk was packed from.
func (be Backend) RunPack(pk Pack, batch int, x, out []float64, relu bool) {
	pk.run(be, batch, x, out, relu)
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
// bits of the plain call followed by a ReLU pass. It packs the weights
// as PackConv does, runs the pack as RunPack does, and returns the
// pack's buffers to the pools; each image is padded once and counts as
// one GEMM in the dispatch counters and spans. With 2+ workers the
// 256-pixel chunks of each image shard across them.
func (be Backend) Conv(g ConvGeom, batch, inC, outC int, x, w, bias, out []float64, relu bool) {
	cv := newConvPack(g, inC, outC, w, bias, true)
	cv.run(be, batch, x, out, relu)
	cv.release()
}

// PackConv packs a conv's weights w [outC, inC, K, K] and bias (nil for
// zero) for inputs of geometry g, as Conv does per call; RunPack then
// gives Conv's bits.
func PackConv(g ConvGeom, inC, outC int, w, bias []float64) Pack {
	cv := newConvPack(g, inC, outC, w, bias, false)
	return &cv
}

// convPack is the conv kernel's packed state: the weights and the two
// offset tables.
type convPack struct {
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
}

// newConvPack packs the weights and builds the offset tables into the
// padded image [inC, Hp, Wp] (Hp = H+2·Pad, Wp = W+2·Pad):
// loff[l] = ic·Hp·Wp + kh·Wp + kw and off[oy·OW+ox] = oy·S·Wp + ox·S.
// With perCall set its buffers come from the pools, and release
// returns them; otherwise they are its own.
func newConvPack(g ConvGeom, inC, outC int, w, bias []float64, perCall bool) convPack {
	fp, ip := &packPool, &offPool
	if !perCall {
		fp, ip = nil, nil
	}
	cv := convPack{g: g, inC: inC, outC: outC, k: inC * g.K * g.K, n: g.OH * g.OW}
	cv.wp = packWeights(fp, outC, cv.k, w, bias)
	padH, padW := g.H+2*g.Pad, g.W+2*g.Pad
	cv.loff = pooled[int](ip, cv.k)
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
	cv.off = pooled[int](ip, (cv.n+3)&^3)
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
	return cv
}

// release returns a per-call pack's buffers to the pools.
func (cv *convPack) release() {
	packPool.Put(cv.wp)
	offPool.Put(cv.loff)
	offPool.Put(cv.off)
}

// packWeights packs w ([outC, k]) and bias into blocks of 8 output
// channels, a bias row (+0 when nil) then wp[b][1+l][r] = w[8b+r][l],
// with zero rows past outC, in a buffer from pool (see pooled). Eight
// rows are copied per pass, so each l writes one contiguous 64-byte
// group. A per-call pack redoes it on every call; a Pack does it once,
// which is why it must be built after the last write to the weights
// (exec.Plan packs each conv node's own layer once, at NewPlan).
func packWeights(pool *sync.Pool, outC, k int, w, bias []float64) *[]float64 {
	blk := (k + 1) * 8
	p := pooled[float64](pool, (outC+7)/8*blk)
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

// run computes Conv over the batch from the pack, padding each image
// into one per-call buffer drawn from the pool.
func (cv *convPack) run(be Backend, batch int, x, out []float64, relu bool) {
	g := cv.g
	var buf *[]float64
	var xp []float64
	if g.Pad > 0 {
		buf = pooled[float64](&packPool, cv.inC*(g.H+2*g.Pad)*(g.W+2*g.Pad))
		xp = *buf
		clear(xp) // the border; each image rewrites only the interior
	}
	imgIn, imgOut := cv.inC*g.H*g.W, cv.outC*cv.n
	for i := 0; i < batch; i++ {
		be.convImage(cv, xp, x[i*imgIn:(i+1)*imgIn], out[i*imgOut:(i+1)*imgOut], relu)
	}
	if buf != nil {
		packPool.Put(buf)
	}
}

// convImage computes one image: it pads x into xp (nil when Pad is 0)
// and runs the tiles, sharding 256-pixel chunks across the workers.
func (be Backend) convImage(cv *convPack, xp, x, out []float64, relu bool) {
	if be.ctx != nil && cv.outC*cv.n*cv.k >= traceMinMACs {
		_, sp := obs.Start(be.ctx, "kernels.gemm",
			obs.KV("impl", be.Name()), obs.KV("m", cv.outC), obs.KV("n", cv.n), obs.KV("k", cv.k))
		be.ctx = nil
		be.convImage(cv, xp, x, out, relu)
		sp.End()
		return
	}
	countDispatch(be.impl, opGEMM)
	if xp != nil {
		g := cv.g
		padH, padW := g.H+2*g.Pad, g.W+2*g.Pad
		for ic := 0; ic < cv.inC; ic++ {
			for ih := 0; ih < g.H; ih++ {
				copy(xp[(ic*padH+ih+g.Pad)*padW+g.Pad:], x[(ic*g.H+ih)*g.W:][:g.W])
			}
		}
		x = xp
	}
	if be.workers < 2 || cv.outC*cv.n*cv.k < minParallelMACs || cv.n < 8 {
		cv.tiles(x, out, 0, cv.n, relu)
		return
	}
	shared := *cv // a copy, so only this path moves pack state to the heap
	runShards(be.workers, (cv.n+gemmChunk-1)/gemmChunk, func(u int) {
		j0 := u * gemmChunk
		shared.tiles(x, out, j0, min(j0+gemmChunk, shared.n), relu)
	})
}

// tiles computes output pixels [j0, j1) of one image from its padded
// form x into c ([outC, n]); j0 is a multiple of 4. A ragged block (the
// last outC mod 8 channels or n mod 4 pixels) runs the same kernel into
// a stack tile, of which the valid part is copied out: its packed
// weight rows are zero and its spare pixels repeat the last offset, so
// every read stays in bounds. k = 0 leaves the bias, through the
// epilogue when relu is set.
func (cv *convPack) tiles(x, c []float64, j0, j1 int, relu bool) {
	k, n, blk, wpAll := cv.k, cv.n, (cv.k+1)*8, *cv.wp
	if k == 0 {
		for o := 0; o < cv.outC; o++ {
			v := wpAll[o/8*blk+o%8]
			if relu {
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
				convTile(k, wp, xs, loff, off, c[r0*n+j:(r0+7)*n+j+4], n, relu)
				continue
			}
			convTile(k, wp, xs, loff, off, tile[:], 4, relu)
			for r := 0; r < rows; r++ {
				copy(c[(r0+r)*n+j:][:cols], tile[4*r:])
			}
		}
	}
}
