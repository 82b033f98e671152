// Package kernels is the compute layer under every forward pass: the
// dense inner loops of conv, GEMM, depthwise conv, fully connected
// layers, max pooling and pooling fan-out. There is one
// implementation, the Backend value with seven methods: Conv, GEMM,
// DWConv, RunPack, Dense, MaxPool and Fan. Conv and GEMM share one
// kernel (conv.go): it packs the weights into blocks of 8 output
// channels, and its micro-kernel computes 8 output channels × 4 output
// pixels from them, reading activations in place from the image,
// zero-padded once per image, through two offset tables. GEMM is a 1×1
// conv over B. Depthwise conv computes four planes per pass with
// hoisted bounds, and dense unrolls 4 output rows.
//
// Conv and DWConv pack per call. PackConv and PackDW build the same
// state once, as a Pack that RunPack runs for any batch with the same
// code and bits; internal/exec's Plan packs each conv and depthwise
// conv node this way, so replays pack nothing. A Pack is a snapshot of
// the weights it was built from: build it after the last write to
// them.
//
// Conv and DWConv take a relu flag, the ReLU epilogue: each sum passes
// through ReLU (v when v > 0, +0 otherwise, −0 and NaN included) in
// registers before its store, so the output holds the bits of the plain
// call followed by a separate ReLU pass. internal/exec runs a conv and
// the ReLU that is its only consumer as one such call. GEMM runs
// without it.
//
// A Policy only decides how many goroutines one kernel call may use.
// "blocked" (the default) runs every call on the calling goroutine;
// "parallel" shards the output pixels, planes or rows of one call
// across IntraWorkers goroutines. Calls below 2 workers or 2^15
// multiply-accumulates run serially either way.
//
// Reduction-order contract: each output element is bias + Σ terms in
// one fixed ascending order (ascending l for GEMM and Conv, whose l =
// (ic, kh, kw) is the im2col row; ascending (kh,kw) over the valid taps
// for depthwise conv; ascending i for dense), and each max-pool output
// is its window's running max in row-major order from −Inf, a value
// replacing the best so far only when it is greater. Work is only ever
// sharded across disjoint output elements, never across the reduction
// dimension, so every policy gives the same bits at any worker count.
// Caches therefore ignore the kernel policy, as they ignore worker
// counts. NaN payloads are outside the contract: which operand's
// payload an instruction propagates is the CPU's and the compiler's
// choice.
//
// Conv and GEMM accumulate with fused multiply-add. FMA is IEEE-defined
// ("computed with only one rounding"), so results are identical
// whether the CPU fuses in hardware or math.FMA falls back to its
// software implementation. The GOAMD64 level therefore changes speed,
// never bits. Built with GOAMD64=v3, which guarantees AVX2 and FMA,
// math.FMA compiles to a bare VFMADD and three bodies are Go assembly,
// each with the bits of the Go body it replaces:
//   - convTile (tile_amd64.s): eight YMM accumulators of 4 channels × 1
//     pixel, whose lanes each run the same ascending-l FMA chain as the
//     Go body (tile_other.go); the epilogue is VMAXPD(acc, +0).
//   - depthwise conv (dwconv_amd64.s): the four planes the Go body
//     groups, in the four lanes of a YMM, read through the pack's
//     tables of lane weights and valid taps. Each lane is the bias,
//     then per valid tap in ascending (kh, kw) order a VMULPD and a
//     VADDPD, each rounding once as the Go body's product and sum do,
//     not an FMA. Skipped taps stay skipped: adding 0·w is not an
//     identity (−0 + +0 is +0, 0·Inf is NaN). A short last group of
//     planes runs the Go body.
//   - max pooling with 2×2 windows at stride 2, every max-pool of the
//     zoo (maxpool_amd64.s): VMAXPD(v, best) per window element in
//     row-major order from −Inf, which returns v only when v > best,
//     four output pixels per vector, then two, then one. Other windows
//     run the Go body.
//
// The amd64.v3 build tag alone selects the bodies. The Go bodies of
// depthwise conv and max pooling compile at every level, as the
// reference the tests hold the assembly to; the same bit-for-bit tests
// and fuzz targets run at both levels in CI.
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

// Traced returns be carrying ctx, so GEMM calls and conv images of at
// least 2^18 multiply-accumulates record "kernels.gemm" spans (attrs
// impl/m/n/k) on ctx's tracer. When ctx carries no tracer the result
// records nothing. Tracing never changes results.
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
