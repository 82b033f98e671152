package kernels

import (
	"sync"
	"sync/atomic"
)

// Depthwise conv hoists the padding bounds out of the innermost loops
// and shares them across four planes; dense unrolls 4 output rows per x
// sweep. The conv kernel and GEMM live in conv.go. Every output element
// is bias + Σ terms in the ascending order of the scalar loops (see the
// package reduction-order contract), so any decomposition produces
// identical bits.

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
