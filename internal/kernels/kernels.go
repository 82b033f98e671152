// Package kernels is the compute-backend layer under every forward
// pass: the dense inner loops of conv (im2col + GEMM), depthwise conv,
// fully connected layers and pooling fan-out live behind the Backend
// interface, selected per execution session by a Policy value instead
// of a mutable package global.
//
// Three implementations are registered:
//
//   - "naive": the original reference loops, moved here verbatim from
//     internal/nn. Slow, obvious, and the behavioral baseline every
//     other backend is differentially checked against.
//   - "blocked": cache-blocked, register-tiled GEMM over packed
//     4-column panels with a 2×4 micro-kernel, depthwise conv four
//     planes per pass with hoisted bounds, and a 4-row-unrolled dense
//     kernel. Pure Go.
//   - "parallel": the blocked kernels with goroutine intra-op tiling —
//     output columns/planes/rows of a single layer are sharded across
//     a bounded worker set.
//
// Every backend shares one im2col: it copies the image once into a
// zero-bordered buffer from the pack pool, then fills each column-matrix
// row from one list of receptive-field offsets, with no bounds test per
// element.
//
// Reduction-order contract: every backend computes each output element
// as bias + Σ terms in one fixed ascending order (ascending l for
// GEMM, ascending (kh,kw) for convolutions, ascending i for dense and
// dot). Work is only ever sharded across *disjoint output elements*,
// never across the reduction dimension, so "parallel" is bit-identical
// to "blocked" at any worker count — including the inline fallback it
// takes for small shapes. "naive" additionally skips zero weight rows
// in GEMM (an axpy-sweep artifact), so naive and blocked agree to
// ≤1e-9 against internal/refcheck's float64 references but are not
// guaranteed bit-identical to each other.
//
// The blocked/parallel GEMM accumulates with math.FMA. FMA is
// IEEE-defined ("computed with only one rounding"), so results are
// identical whether the CPU fuses in hardware or the runtime falls
// back to the software implementation — determinism is unaffected by
// build flags or host CPU. Speed is not: on amd64 build with
// GOAMD64=v3 to drop the per-call-site hardware check and emit bare
// VFMADD instructions (~2.5× on the GEMM micro-kernel); this
// repository's CI does.
package kernels

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
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

// Backend is one compute implementation of the dense primitives. All
// implementations are stateless and safe for concurrent use by any
// number of sessions; scratch memory is drawn from internal pools.
type Backend interface {
	// Name returns the registered implementation name.
	Name() string

	// GEMM computes c[i*n+j] = bias[i] + Σ_l a[i*k+l]·b[l*n+j] for
	// i<m, j<n, overwriting c. bias may be nil (treated as zero). The
	// per-element reduction runs in ascending l.
	GEMM(m, n, k int, a, b, bias, c []float64)

	// Im2col packs the receptive fields of one [inC, H, W] image x
	// into a [inC·K·K, OH·OW] column matrix (zero padding
	// materialized). Pure data movement: identical across backends.
	Im2col(g ConvGeom, inC int, x, cols []float64)

	// DWConv computes a depthwise convolution over x [batch, channels,
	// H, W] with weights w [channels, K, K] and per-channel bias into
	// out [batch, channels, OH, OW].
	DWConv(g ConvGeom, batch, channels int, x, w, bias, out []float64)

	// Dense computes y[r*out+o] = bias[o] + Σ_i w[o*in+i]·x[r*in+i]
	// for r<batch, o<out (bias may be nil).
	Dense(batch, in, out int, x, w, bias, y []float64)

	// Axpy computes y[i] += alpha·x[i] over len(x) elements.
	Axpy(alpha float64, x, y []float64)

	// Dot returns Σ x[i]·y[i] accumulated in ascending i.
	Dot(x, y []float64) float64

	// Fan runs f(0..n-1), each call writing a disjoint slice of the
	// output: inline on serial backends, sharded across the intra-op
	// worker budget on "parallel". Calls may run in any order and
	// concurrently; f must not depend on ordering.
	Fan(n int, f func(i int))
}

// DefaultImpl is the implementation selected by an empty Policy.Impl.
const DefaultImpl = "blocked"

// Policy selects a compute backend by value. The zero value means
// "default backend, automatic intra-op budget" and is always valid, so
// configs that never mention kernels keep working unchanged.
type Policy struct {
	// Impl names the backend: "naive", "blocked", "parallel", or ""
	// for DefaultImpl.
	Impl string `json:"impl,omitempty"`
	// IntraWorkers bounds the goroutines the "parallel" backend may
	// use inside one layer. 0 means an automatic budget (see
	// IntraBudget); serial backends ignore it.
	IntraWorkers int `json:"intra_workers,omitempty"`
}

// Validate reports whether the policy names a registered backend and
// has a sane worker budget.
func (p Policy) Validate() error {
	if p.IntraWorkers < 0 {
		return fmt.Errorf("kernels: negative intra workers %d", p.IntraWorkers)
	}
	name := p.Impl
	if name == "" {
		name = DefaultImpl
	}
	regMu.RLock()
	_, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return fmt.Errorf("kernels: unknown backend %q (have %v)", p.Impl, Names())
	}
	return nil
}

// ResultClass collapses the policy to its result-equivalence class for
// content-addressed caching: IntraWorkers is dropped and "parallel"
// maps to "blocked" (bit-identical by contract), so turning intra-op
// parallelism on or off never splits a profile cache. "naive" stays
// its own class — its zero-skip GEMM is not bit-identical to the
// blocked kernels.
func (p Policy) ResultClass() Policy {
	impl := p.Impl
	if impl == "" {
		impl = DefaultImpl
	}
	if impl == "parallel" {
		impl = "blocked"
	}
	return Policy{Impl: impl}
}

var (
	regMu    sync.RWMutex
	registry = map[string]func(intraWorkers int) Backend{}
)

// Register adds a backend constructor under name; the constructor
// receives the resolved intra-op worker budget. Last registration
// wins. Intended for package init; safe for concurrent use.
func Register(name string, ctor func(intraWorkers int) Backend) {
	regMu.Lock()
	registry[name] = ctor
	regMu.Unlock()
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}

// New resolves a policy to a backend, applying DefaultImpl and the
// automatic intra-op budget for zero fields.
func New(p Policy) (Backend, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	name := p.Impl
	if name == "" {
		name = DefaultImpl
	}
	workers := p.IntraWorkers
	if workers <= 0 {
		workers = IntraBudget(1)
	}
	regMu.RLock()
	ctor := registry[name]
	regMu.RUnlock()
	return ctor(workers), nil
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
func Default() Backend { return MustNew(Policy{}) }

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
