package kernels

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Depthwise conv hoists the padding bounds out of the innermost loops
// and shares them across four planes; dense unrolls 4 output rows per x
// sweep; max pooling runs each window in row-major order. The conv
// kernel and GEMM live in conv.go. Every output element is bias + Σ
// terms (or a window max) in the ascending order of the scalar loops
// (see the package reduction-order contract), so any decomposition
// produces identical bits.

// minParallelMACs is the work floor under which sharding costs more
// than it saves and a call runs serially.
const minParallelMACs = 1 << 15

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

// DWConv computes a depthwise convolution over x [batch, channels, H,
// W] with weights w [channels, K, K] and per-channel bias into out
// [batch, channels, OH, OW]. The padding bounds are hoisted: the valid
// kh range is computed once per output row and the valid kw range once
// per output column, so the innermost loop is branch-free. Skipping
// out-of-range taps arithmetically instead of per pixel keeps the
// included terms and their order those of a bounds-checked loop. With
// relu set, each sum passes through the ReLU epilogue before its store.
// It packs as PackDW does and runs the pack as RunPack does; with 2+
// workers the planes shard in groups of four.
func (be Backend) DWConv(g ConvGeom, batch, channels int, x, w, bias, out []float64, relu bool) {
	dw := newDWPack(g, channels, w, bias, true)
	dw.run(be, batch, x, out, relu)
	dw.release()
}

// PackDW prepares a depthwise conv's weights w [channels, K, K] and
// bias (nil for zero) for inputs of geometry g, as DWConv does per
// call; RunPack then gives DWConv's bits. The Go body reads the weights
// in place, so the pack keeps its own copy of them.
func PackDW(g ConvGeom, channels int, w, bias []float64) Pack {
	dw := newDWPack(g, channels, slices.Clone(w), slices.Clone(bias), false)
	return &dw
}

// dwPack is the depthwise kernel's prepared state. The x86-64-v3 body
// also holds its lane table and tap list there (dwconv_amd64.go); the
// Go body leaves them nil and reads w and bias.
type dwPack struct {
	g        ConvGeom
	channels int
	w, bias  []float64
	lanes    *[]float64
	taps     *[]int
}

// run computes DWConv over the batch from the pack.
func (d *dwPack) run(be Backend, batch int, x, out []float64, relu bool) {
	countDispatch(be.impl, opDWConv)
	g, planes := d.g, batch*d.channels
	if be.workers < 2 || planes < 2 || planes*g.OH*g.OW*g.K*g.K < minParallelMACs {
		d.planes(x, out, 0, planes, relu)
		return
	}
	shared := *d // a copy, so only this path moves pack state to the heap
	runShards(be.workers, (planes+3)/4, func(u int) {
		shared.planes(x, out, 4*u, min(4*u+4, planes), relu)
	})
}

// dwconvHoisted is the Go body of DWConv: it computes channel planes
// [p0, p1) of the flattened (batch·channels) plane index space, four
// planes per pass. The four accumulators share the hoisted bounds, and
// a short last group repeats its final plane in the spare lanes, whose
// results only rewrite that plane's own values.
func dwconvHoisted(g ConvGeom, p0, p1, channels int, x, w, bias, out []float64, relu bool) {
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
				if relu {
					a0, a1, a2, a3 = ReLU(a0), ReLU(a1), ReLU(a2), ReLU(a3)
				}
				o := oh*g.OW + ow
				out[ob[0]+o], out[ob[1]+o], out[ob[2]+o], out[ob[3]+o] = a0, a1, a2, a3
			}
		}
	}
}

// MaxPool computes K×K max pooling at the given stride, unpadded, over
// planes [H, W] planes of x into out [planes, OH, OW], overwriting it.
// Each output is its window's running max in row-major order from −Inf:
// a value replaces the best so far only when v > best, so NaN never
// wins and the first of equal values (+0 before −0) stays. Pooling
// counts as a fan op, and with 2+ workers the planes shard across them
// as Fan's units do.
func (be Backend) MaxPool(g ConvGeom, planes int, x, out []float64) {
	countDispatch(be.impl, opFan)
	if be.workers < 2 || planes < 2 {
		maxPool(g, 0, planes, x, out)
		return
	}
	runShards(be.workers, planes, func(p int) { maxPool(g, p, p+1, x, out) })
}

// maxPoolPlanes is the Go body of MaxPool over planes [p0, p1): the
// running max is selected with a mask, since a branch on noisy
// activations mispredicts.
func maxPoolPlanes(g ConvGeom, p0, p1 int, x, out []float64) {
	for p := p0; p < p1; p++ {
		base, oBase := p*g.H*g.W, p*g.OH*g.OW
		for oy := 0; oy < g.OH; oy++ {
			for ox := 0; ox < g.OW; ox++ {
				best := math.Inf(-1)
				for kh := 0; kh < g.K; kh++ {
					row := base + (oy*g.Stride+kh)*g.W + ox*g.Stride
					for _, v := range x[row : row+g.K] {
						m := -b2u(v > best)
						best = math.Float64frombits(math.Float64bits(v)&m | math.Float64bits(best)&^m)
					}
				}
				out[oBase+oy*g.OW+ox] = best
			}
		}
	}
}

// ReLU is the epilogue Conv and DWConv apply with relu set, with the
// bits of nn.ReLU: v when v > 0, and +0 otherwise (−0 and NaN
// included), selected with an integer mask because a branch on the
// sign of noisy activations mispredicts. The x86-64-v3 bodies take
// VMAXPD(v, +0), which returns its second source unless the first is
// greater: the same bits.
func ReLU(v float64) float64 {
	return math.Float64frombits(math.Float64bits(v) & -b2u(v > 0))
}

// b2u returns 1 for true and 0 for false. The compiler lowers it to a
// flag set, so a mask -b2u(cond) selects without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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
