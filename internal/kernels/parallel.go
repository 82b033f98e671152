package kernels

import (
	"sync"
	"sync/atomic"
)

func init() {
	Register("parallel", func(intraWorkers int) Backend {
		if intraWorkers < 1 {
			intraWorkers = 1
		}
		return parallelBackend{workers: intraWorkers}
	})
}

// parallelBackend runs the blocked kernels with goroutine intra-op
// tiling: output columns (GEMM), channel planes (depthwise conv,
// im2col, pooling fan-out) or output rows (dense) of a single layer
// are sharded across at most `workers` goroutines via an atomic work
// counter. Shards are disjoint output ranges and every element keeps
// the blocked backend's per-element reduction order, so results are
// bit-identical to "blocked" at any worker count. Small layers (below
// minParallelMACs of work) run inline — the fallback changes latency
// only, never bits.
type parallelBackend struct {
	workers int
}

// Name implements Backend.
func (parallelBackend) Name() string { return "parallel" }

// minParallelMACs is the work floor under which sharding costs more
// than it saves and the kernels run inline.
const minParallelMACs = 1 << 15

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

// GEMM implements Backend: nr-aligned column chunks sharded across the
// worker budget, one packed panel buffer per worker invocation.
func (p parallelBackend) GEMM(m, n, k int, a, b, bias, c []float64) {
	countDispatch(implParallel, opGEMM)
	if p.workers < 2 || m*n*k < minParallelMACs || n < 2*nr {
		pack := getPack(k * nr)
		gemmBlockedCols(m, n, k, a, b, bias, c, 0, n, pack)
		putPack(pack)
		return
	}
	units := (n + gemmChunk - 1) / gemmChunk
	runShards(p.workers, units, func(u int) {
		j0 := u * gemmChunk
		j1 := j0 + gemmChunk
		if j1 > n {
			j1 = n
		}
		pack := getPack(k * nr)
		gemmBlockedCols(m, n, k, a, b, bias, c, j0, j1, pack)
		putPack(pack)
	})
}

// Im2col implements Backend: the image is padded once, then input
// channels shard (each channel fills its own K·K rows of the column
// matrix).
func (p parallelBackend) Im2col(g ConvGeom, inC int, x, cols []float64) {
	countDispatch(implParallel, opIm2col)
	if p.workers < 2 || inC < 2 || inC*g.K*g.K*g.OH*g.OW < minParallelMACs {
		im2col(g, inC, x, cols)
		return
	}
	xp, off := im2colSetup(g, inC, x)
	pp, rows := len(xp)/inC, g.K*g.K*len(*off)
	runShards(p.workers, inC, func(ic int) {
		im2colChannel(g, xp[ic*pp:(ic+1)*pp], *off, cols[ic*rows:(ic+1)*rows])
	})
	putPack(xp)
	offPool.Put(off)
}

// DWConv implements Backend: channel planes shard in the groups of four
// that dwconvHoisted computes per pass.
func (p parallelBackend) DWConv(g ConvGeom, batch, channels int, x, w, bias, out []float64) {
	countDispatch(implParallel, opDWConv)
	planes := batch * channels
	if p.workers < 2 || planes < 2 || planes*g.OH*g.OW*g.K*g.K < minParallelMACs {
		dwconvHoisted(g, 0, planes, channels, x, w, bias, out)
		return
	}
	runShards(p.workers, (planes+3)/4, func(u int) {
		dwconvHoisted(g, 4*u, min(4*u+4, planes), channels, x, w, bias, out)
	})
}

// Dense implements Backend: batch rows shard when the batch is wide
// enough, otherwise output-quad chunks within each row.
func (p parallelBackend) Dense(batch, in, out int, x, w, bias, y []float64) {
	countDispatch(implParallel, opDense)
	if p.workers < 2 || batch*in*out < minParallelMACs {
		for n := 0; n < batch; n++ {
			denseRows(n, in, out, 0, out, x, w, bias, y)
		}
		return
	}
	if batch >= p.workers {
		runShards(p.workers, batch, func(n int) {
			denseRows(n, in, out, 0, out, x, w, bias, y)
		})
		return
	}
	const outChunk = 64 // multiple of 4: quad grouping matches serial
	units := (out + outChunk - 1) / outChunk
	for n := 0; n < batch; n++ {
		runShards(p.workers, units, func(u int) {
			o1 := (u + 1) * outChunk
			if o1 > out {
				o1 = out
			}
			denseRows(n, in, out, u*outChunk, o1, x, w, bias, y)
		})
	}
}

// Axpy implements Backend (serial: memory-bound, not worth sharding).
func (p parallelBackend) Axpy(alpha float64, x, y []float64) {
	countDispatch(implParallel, opAxpy)
	blockedBackend{}.Axpy(alpha, x, y)
}

// Dot implements Backend (serial: the reduction order is the
// contract, so the sum cannot be sharded).
func (p parallelBackend) Dot(x, y []float64) float64 {
	countDispatch(implParallel, opDot)
	return blockedBackend{}.Dot(x, y)
}

// Fan implements Backend: indices shard across the worker budget.
// Callers guarantee disjoint writes per index.
func (p parallelBackend) Fan(n int, f func(i int)) {
	countDispatch(implParallel, opFan)
	if p.workers < 2 || n < 2 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	runShards(p.workers, n, f)
}
