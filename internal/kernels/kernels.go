// Package kernels is the compute layer under every forward pass: the
// dense inner loops of conv (im2col + GEMM), depthwise conv, fully
// connected layers and pooling fan-out. There is one implementation,
// the Backend value: a cache-blocked, register-tiled GEMM over packed
// 4-column panels with a 2×4 micro-kernel, depthwise conv four planes
// per pass with hoisted bounds, and a 4-row-unrolled dense kernel, all
// pure Go. im2col copies the image once into a zero-bordered buffer
// from the pack pool, then fills each column-matrix row from one list
// of receptive-field offsets, with no bounds test per element.
//
// A Policy only decides how many goroutines one kernel call may use.
// "blocked" (the default) runs every call on the calling goroutine;
// "parallel" shards the output columns, planes or rows of one call
// across IntraWorkers goroutines. Calls below 2 workers or 2^15
// multiply-accumulates run serially either way.
//
// Reduction-order contract: each output element is bias + Σ terms in
// one fixed ascending order (ascending l for GEMM, ascending (kh,kw)
// for convolutions, ascending i for dense and dot). Work is only ever
// sharded across disjoint output elements, never across the reduction
// dimension, so every policy gives the same bits at any worker count.
// Caches therefore ignore the kernel policy, as they ignore worker
// counts.
//
// The GEMM accumulates with math.FMA. FMA is IEEE-defined ("computed
// with only one rounding"), so results are identical whether the CPU
// fuses in hardware or the runtime falls back to the software
// implementation — determinism is unaffected by build flags or host
// CPU. Speed is not: on amd64 build with GOAMD64=v3 to drop the
// per-call-site hardware check and emit bare VFMADD instructions
// (~2.5× on the GEMM micro-kernel); this repository's CI does.
package kernels

import (
	"context"
	"fmt"
	"runtime"

	"mupod/internal/obs"
)

// ConvGeom carries the spatial geometry of one convolution or pooling
// call: input H×W, square kernel K, stride, zero padding, and the
// output dims OH×OW derived from them.
type ConvGeom struct {
	H, W   int
	K      int
	Stride int
	Pad    int
	OH, OW int
}

// Backend computes the dense primitives under one resolved Policy. It
// is a small value, safe for concurrent use by any number of sessions;
// scratch memory is drawn from internal pools. The zero value is the
// serial default backend.
type Backend struct {
	workers int             // goroutines one call may use; below 2 runs serially
	impl    implID          // the policy name, for dispatch counters and spans
	ctx     context.Context // tracer carrier for GEMM spans (see Traced); nil when untraced
}

// Name returns the policy name the backend was resolved from.
func (be Backend) Name() string { return implNames[be.impl] }

// Traced returns be carrying ctx, so GEMM calls of at least 2^18
// multiply-accumulates record "kernels.gemm" spans (attrs impl/m/n/k)
// on ctx's tracer. When ctx carries no tracer the result records
// nothing. Tracing never changes results.
func Traced(ctx context.Context, be Backend) Backend {
	be.ctx = nil
	if obs.Enabled(ctx) {
		be.ctx = ctx
	}
	return be
}

// DefaultImpl is the implementation selected by an empty Policy.Impl.
const DefaultImpl = "blocked"

// Policy selects how a Backend parallelizes, by value. The zero value
// means "serial" and is always valid, so configs that never mention
// kernels keep working unchanged.
type Policy struct {
	// Impl is "blocked" (serial), "parallel" (intra-op sharding), or
	// "" for DefaultImpl.
	Impl string `json:"impl,omitempty"`
	// IntraWorkers bounds the goroutines "parallel" may use inside one
	// layer. 0 means an automatic budget (see IntraBudget); "blocked"
	// ignores it.
	IntraWorkers int `json:"intra_workers,omitempty"`
}

// Validate reports whether the policy names a known implementation and
// has a sane worker budget.
func (p Policy) Validate() error {
	if p.IntraWorkers < 0 {
		return fmt.Errorf("kernels: negative intra workers %d", p.IntraWorkers)
	}
	if _, ok := lookupImpl(p.Impl); !ok {
		return fmt.Errorf("kernels: unknown backend %q (have %v)", p.Impl, Names())
	}
	return nil
}

// lookupImpl maps a policy name ("" for DefaultImpl) to its label.
func lookupImpl(name string) (implID, bool) {
	if name == "" {
		name = DefaultImpl
	}
	for i, n := range implNames {
		if n == name {
			return implID(i), true
		}
	}
	return 0, false
}

// Names returns the accepted policy names, sorted.
func Names() []string { return append([]string(nil), implNames[:]...) }

// New resolves a policy to a backend: "parallel" gets IntraWorkers
// goroutines, or IntraBudget(1) when that is 0; every other name runs
// serially.
func New(p Policy) (Backend, error) {
	if err := p.Validate(); err != nil {
		return Backend{}, err
	}
	impl, _ := lookupImpl(p.Impl)
	be := Backend{impl: impl}
	if impl == implParallel {
		be.workers = p.IntraWorkers
		if be.workers == 0 {
			be.workers = IntraBudget(1)
		}
	}
	return be, nil
}

// MustNew is New for policies already validated upstream; it panics on
// error.
func MustNew(p Policy) Backend {
	be, err := New(p)
	if err != nil {
		panic(err)
	}
	return be
}

// Default returns the backend for the zero Policy.
func Default() Backend { return Backend{} }

// IntraBudget divides the machine between inter-item and intra-op
// parallelism: with interWorkers evaluator goroutines already running,
// each may spend max(1, GOMAXPROCS/interWorkers) goroutines inside one
// layer. Inter-op gets priority — intra-op only uses leftover cores.
func IntraBudget(interWorkers int) int {
	if interWorkers < 1 {
		interWorkers = 1
	}
	b := runtime.GOMAXPROCS(0) / interWorkers
	if b < 1 {
		b = 1
	}
	return b
}
