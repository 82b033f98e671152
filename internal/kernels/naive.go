package kernels

import "sync"

func init() {
	Register("naive", func(int) Backend { return naiveBackend{} })
}

// naiveBackend holds the original internal/nn loops, moved here
// verbatim. It is the slow, obvious reference implementation the
// optimized backends are differentially tested against (alongside
// internal/refcheck's float64 kernels).
type naiveBackend struct{}

// Name implements Backend.
func (naiveBackend) Name() string { return "naive" }

// GEMM implements Backend with the historical axpy row-sweep: each
// output row starts at its bias, then every nonzero a[i,l] sweeps
// b-row l into it. Per element the reduction is ascending l with zero
// weights skipped.
func (naiveBackend) GEMM(m, n, k int, a, b, bias, c []float64) {
	countDispatch(implNaive, opGEMM)
	for i := 0; i < m; i++ {
		aRow := a[i*k : (i+1)*k]
		dst := c[i*n : (i+1)*n]
		bi := 0.0
		if bias != nil {
			bi = bias[i]
		}
		for j := range dst {
			dst[j] = bi
		}
		for l, av := range aRow {
			if av == 0 {
				continue
			}
			src := b[l*n : (l+1)*n]
			for j, sv := range src {
				dst[j] += av * sv
			}
		}
	}
}

// Im2col implements Backend.
func (naiveBackend) Im2col(g ConvGeom, inC int, x, cols []float64) {
	countDispatch(implNaive, opIm2col)
	im2col(g, inC, x, cols)
}

// im2col packs the receptive fields of one [inC, H, W] image into a
// [inC·K·K, OH·OW] column matrix (zero padding materialized). All
// backends share it — pure data movement has one correct answer.
func im2col(g ConvGeom, inC int, x, cols []float64) {
	xp, off := im2colSetup(g, inC, x)
	pp, rows := len(xp)/inC, g.K*g.K*len(*off)
	for ic := 0; ic < inC; ic++ {
		im2colChannel(g, xp[ic*pp:(ic+1)*pp], *off, cols[ic*rows:(ic+1)*rows])
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
// per element; the parallel backend shards over channels.
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

// DWConv implements Backend with the original per-pixel
// bounds-checked loops.
func (naiveBackend) DWConv(g ConvGeom, batch, channels int, x, w, bias, out []float64) {
	countDispatch(implNaive, opDWConv)
	H, W := g.H, g.W
	for n := 0; n < batch; n++ {
		for c := 0; c < channels; c++ {
			xBase := ((n*channels + c) * H) * W
			wBase := c * g.K * g.K
			bi := 0.0
			if bias != nil {
				bi = bias[c]
			}
			for oh := 0; oh < g.OH; oh++ {
				ihBase := oh*g.Stride - g.Pad
				for ow := 0; ow < g.OW; ow++ {
					iwBase := ow*g.Stride - g.Pad
					acc := bi
					for kh := 0; kh < g.K; kh++ {
						ih := ihBase + kh
						if ih < 0 || ih >= H {
							continue
						}
						xRow := xBase + ih*W
						wRow := wBase + kh*g.K
						for kw := 0; kw < g.K; kw++ {
							iw := iwBase + kw
							if iw < 0 || iw >= W {
								continue
							}
							acc += x[xRow+iw] * w[wRow+kw]
						}
					}
					out[((n*channels+c)*g.OH+oh)*g.OW+ow] = acc
				}
			}
		}
	}
}

// Dense implements Backend with one plain ascending-i dot per output.
func (naiveBackend) Dense(batch, in, out int, x, w, bias, y []float64) {
	countDispatch(implNaive, opDense)
	for n := 0; n < batch; n++ {
		xRow := x[n*in : (n+1)*in]
		for o := 0; o < out; o++ {
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
}

// Axpy implements Backend.
func (naiveBackend) Axpy(alpha float64, x, y []float64) {
	countDispatch(implNaive, opAxpy)
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// Dot implements Backend.
func (naiveBackend) Dot(x, y []float64) float64 {
	countDispatch(implNaive, opDot)
	acc := 0.0
	for i, xv := range x {
		acc += xv * y[i]
	}
	return acc
}

// Fan implements Backend: strictly sequential.
func (naiveBackend) Fan(n int, f func(i int)) {
	countDispatch(implNaive, opFan)
	for i := 0; i < n; i++ {
		f(i)
	}
}
