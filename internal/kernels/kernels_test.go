package kernels

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mupod/internal/obs"
)

func fill(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.NormFloat64()
		if r.Intn(8) == 0 {
			s[i] = 0 // exact zeros, as ReLU outputs carry
		}
	}
	return s
}

// refGEMM is the plain ijk triple loop every policy is checked
// against.
func refGEMM(m, n, k int, a, b, bias, c []float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			if bias != nil {
				acc = bias[i]
			}
			for l := 0; l < k; l++ {
				acc += a[i*k+l] * b[l*n+j]
			}
			c[i*n+j] = acc
		}
	}
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// backendsUnderTest resolves every policy name at 1 and 4 intra-op
// workers.
func backendsUnderTest(t *testing.T) map[string]Backend {
	t.Helper()
	out := map[string]Backend{}
	for _, name := range Names() {
		for _, workers := range []int{1, 4} {
			be, err := New(Policy{Impl: name, IntraWorkers: workers})
			if err != nil {
				t.Fatalf("New(%s): %v", name, err)
			}
			out[fmt.Sprintf("%s/w%d", name, workers)] = be
		}
	}
	return out
}

func TestGEMMEquivalence(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {4, 4, 4}, {5, 7, 3}, {3, 2, 9}, {1, 513, 64},
		{64, 37, 13}, {16, 256, 27}, {7, 1030, 33}, {8, 300, 144},
	}
	r := rand.New(rand.NewSource(1))
	for _, sh := range shapes {
		a := fill(r, sh.m*sh.k)
		b := fill(r, sh.k*sh.n)
		bias := fill(r, sh.m)
		want := make([]float64, sh.m*sh.n)
		refGEMM(sh.m, sh.n, sh.k, a, b, bias, want)
		serial := make([]float64, sh.m*sh.n)
		Default().GEMM(sh.m, sh.n, sh.k, a, b, bias, serial)
		for name, be := range backendsUnderTest(t) {
			got := make([]float64, sh.m*sh.n)
			be.GEMM(sh.m, sh.n, sh.k, a, b, bias, got)
			if d := maxAbsDiff(got, want); d > 1e-9 {
				t.Errorf("%s GEMM %dx%dx%d: max diff %g vs reference", name, sh.m, sh.n, sh.k, d)
			}
			// Every policy and worker count gives the serial bits
			// (disjoint-shard contract).
			for i := range got {
				if got[i] != serial[i] {
					t.Fatalf("%s GEMM %dx%dx%d: not bit-identical to serial at index %d: %x vs %x",
						name, sh.m, sh.n, sh.k, i, math.Float64bits(got[i]), math.Float64bits(serial[i]))
				}
			}
		}
		// nil bias means zero.
		noBias := make([]float64, sh.m*sh.n)
		refGEMM(sh.m, sh.n, sh.k, a, b, nil, noBias)
		got := make([]float64, sh.m*sh.n)
		Default().GEMM(sh.m, sh.n, sh.k, a, b, nil, got)
		if d := maxAbsDiff(got, noBias); d > 1e-9 {
			t.Errorf("GEMM nil bias %dx%dx%d: max diff %g", sh.m, sh.n, sh.k, d)
		}
	}
}

// refDWConv is a 7-loop depthwise reference with per-pixel bounds
// checks, mirroring internal/refcheck.
func refDWConv(g ConvGeom, batch, channels int, x, w, bias, out []float64) {
	for n := 0; n < batch; n++ {
		for c := 0; c < channels; c++ {
			for oh := 0; oh < g.OH; oh++ {
				for ow := 0; ow < g.OW; ow++ {
					acc := bias[c]
					for kh := 0; kh < g.K; kh++ {
						ih := oh*g.Stride - g.Pad + kh
						if ih < 0 || ih >= g.H {
							continue
						}
						for kw := 0; kw < g.K; kw++ {
							iw := ow*g.Stride - g.Pad + kw
							if iw < 0 || iw >= g.W {
								continue
							}
							acc += x[((n*channels+c)*g.H+ih)*g.W+iw] * w[(c*g.K+kh)*g.K+kw]
						}
					}
					out[((n*channels+c)*g.OH+oh)*g.OW+ow] = acc
				}
			}
		}
	}
}

func geom(h, w, k, stride, pad int) ConvGeom {
	return ConvGeom{
		H: h, W: w, K: k, Stride: stride, Pad: pad,
		OH: (h+2*pad-k)/stride + 1,
		OW: (w+2*pad-k)/stride + 1,
	}
}

// TestDWConvEquivalence covers the odd shapes of the issue checklist:
// 1×1 kernels, stride > K, zero-pad-dominant windows, degenerate rows.
func TestDWConvEquivalence(t *testing.T) {
	cases := []struct {
		g               ConvGeom
		batch, channels int
	}{
		{geom(8, 8, 3, 1, 1), 2, 3},
		{geom(5, 5, 1, 1, 0), 1, 4}, // 1x1
		{geom(9, 7, 2, 3, 0), 2, 2}, // stride > K
		{geom(4, 4, 3, 1, 2), 1, 3}, // pad-dominant (pad = K-1..)
		{geom(1, 6, 3, 1, 1), 2, 1}, // single-row input
		{geom(12, 12, 5, 2, 2), 1, 8},
		// 15 planes: the last four-plane group is short, and groups
		// span image boundaries; large enough for parallel to shard.
		{geom(16, 16, 3, 1, 1), 3, 5},
		{geom(1, 1, 3, 1, 1), 2, 3}, // 1×1 input (mobilenet dwconv26)
		{geom(2, 2, 3, 1, 1), 1, 7}, // 2×2 input (mobilenet dwconv10..22)
	}
	r := rand.New(rand.NewSource(2))
	for ci, tc := range cases {
		g := tc.g
		x := fill(r, tc.batch*tc.channels*g.H*g.W)
		w := fill(r, tc.channels*g.K*g.K)
		bias := fill(r, tc.channels)
		want := make([]float64, tc.batch*tc.channels*g.OH*g.OW)
		refDWConv(g, tc.batch, tc.channels, x, w, bias, want)
		bes := backendsUnderTest(t)
		for _, workers := range []int{1, 2, 3} {
			bes[fmt.Sprintf("parallel/w%d", workers)] = MustNew(Policy{Impl: "parallel", IntraWorkers: workers})
		}
		for name, be := range bes {
			got := make([]float64, len(want))
			be.DWConv(g, tc.batch, tc.channels, x, w, bias, got)
			// Hoisting the bounds only removes excluded terms, so every
			// policy matches the reference bit for bit.
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("case %d %s DWConv: mismatch at %d: got %v want %v", ci, name, i, got[i], want[i])
				}
			}
		}
	}
}

// refDense is the plain per-output ascending-i dot every policy's Dense
// is checked against.
func refDense(batch, in, out int, x, w, bias, y []float64) {
	for n := 0; n < batch; n++ {
		for o := 0; o < out; o++ {
			acc := bias[o]
			for i := 0; i < in; i++ {
				acc += w[o*in+i] * x[n*in+i]
			}
			y[n*out+o] = acc
		}
	}
}

func TestDenseEquivalence(t *testing.T) {
	cases := []struct{ batch, in, out int }{
		{1, 1, 1}, {3, 5, 7}, {1, 64, 10}, {4, 37, 129}, {2, 300, 64},
	}
	r := rand.New(rand.NewSource(3))
	for _, tc := range cases {
		x := fill(r, tc.batch*tc.in)
		w := fill(r, tc.out*tc.in)
		bias := fill(r, tc.out)
		want := make([]float64, tc.batch*tc.out)
		refDense(tc.batch, tc.in, tc.out, x, w, bias, want)
		for name, be := range backendsUnderTest(t) {
			got := make([]float64, len(want))
			be.Dense(tc.batch, tc.in, tc.out, x, w, bias, got)
			// Each output keeps the reference's ascending-i order, so
			// dense matches it bit for bit.
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s Dense %v: mismatch at %d: got %v want %v", name, tc, i, got[i], want[i])
				}
			}
		}
	}
}

// refIm2col is the bounds-checked per-element lowering every policy's
// Im2col is checked against: each column-matrix entry is read from the
// image or, outside it, set to zero.
func refIm2col(g ConvGeom, inC int, x, cols []float64) {
	i := 0
	for ic := 0; ic < inC; ic++ {
		for kh := 0; kh < g.K; kh++ {
			for kw := 0; kw < g.K; kw++ {
				for oy := 0; oy < g.OH; oy++ {
					for ox := 0; ox < g.OW; ox++ {
						ih := oy*g.Stride - g.Pad + kh
						iw := ox*g.Stride - g.Pad + kw
						cols[i] = 0
						if ih >= 0 && ih < g.H && iw >= 0 && iw < g.W {
							cols[i] = x[(ic*g.H+ih)*g.W+iw]
						}
						i++
					}
				}
			}
		}
	}
}

// checkIm2col compares every policy's Im2col with refIm2col bit for
// bit, into a column buffer holding stale data.
func checkIm2col(t *testing.T, g ConvGeom, inC int, x []float64) {
	t.Helper()
	want := make([]float64, inC*g.K*g.K*g.OH*g.OW)
	refIm2col(g, inC, x, want)
	for name, be := range backendsUnderTest(t) {
		got := make([]float64, len(want))
		for i := range got {
			got[i] = math.NaN()
		}
		be.Im2col(g, inC, x, got)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s Im2col %+v inC=%d: mismatch at %d: got %v want %v", name, g, inC, i, got[i], want[i])
			}
		}
	}
}

func TestIm2colEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, tc := range []struct {
		g   ConvGeom
		inC int
	}{
		{geom(8, 8, 3, 1, 1), 3},
		{geom(6, 6, 1, 1, 0), 5},
		{geom(9, 9, 2, 3, 0), 2},
		{geom(4, 4, 3, 1, 2), 4},
		{geom(16, 16, 3, 2, 1), 3},  // stride 2, pad 1 (mobilenet conv1)
		{geom(2, 2, 3, 1, 1), 32},   // 2×2 input (nin conv10)
		{geom(1, 1, 3, 1, 1), 40},   // 1×1 input
		{geom(3, 5, 2, 1, 3), 2},    // pad > K
		{geom(4, 4, 3, 2, 3), 3},    // pad = K, strided
		{geom(16, 16, 3, 1, 1), 64}, // large enough for parallel to shard
	} {
		checkIm2col(t, tc.g, tc.inC, fill(r, tc.inC*tc.g.H*tc.g.W))
	}
}

// FuzzIm2col checks random geometries against refIm2col: H, W ≤ 12,
// K ≤ 5, stride ≤ 3, pad ≤ K, up to 8 channels. In-range arguments are
// taken as they are; others wrap into range.
func FuzzIm2col(f *testing.F) {
	f.Add(12, 12, 3, 2, 1, 3, int64(1)) // stride 2, pad 1
	f.Add(2, 2, 3, 1, 1, 8, int64(2))   // 2×2 input, K = 3
	f.Add(1, 1, 3, 1, 1, 4, int64(3))   // 1×1 input, K = 3
	f.Add(3, 5, 2, 3, 2, 2, int64(4))   // pad = K
	f.Fuzz(func(t *testing.T, h, w, k, stride, pad, inC int, seed int64) {
		h, w, k = wrap(h, 1, 12), wrap(w, 1, 12), wrap(k, 1, 5)
		stride, pad, inC = wrap(stride, 1, 3), wrap(pad, 0, k+1), wrap(inC, 1, 8)
		if h+2*pad < k || w+2*pad < k {
			return
		}
		g := geom(h, w, k, stride, pad)
		checkIm2col(t, g, inC, fill(rand.New(rand.NewSource(seed)), inC*h*w))
	})
}

// wrap maps v into [lo, lo+n), leaving values already there unchanged.
func wrap(v, lo, n int) int { return lo + int(uint(v-lo)%uint(n)) }

func TestFanRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		be := MustNew(Policy{Impl: "parallel", IntraWorkers: workers})
		const n = 153
		counts := make([]int32, n)
		var mu sync.Mutex
		be.Fan(n, func(i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestIntraPoolRaceHammer drives a sharding backend from many
// goroutines at once (run under -race in CI's kernels job).
func TestIntraPoolRaceHammer(t *testing.T) {
	be := MustNew(Policy{Impl: "parallel", IntraWorkers: 4})
	r := rand.New(rand.NewSource(5))
	const m, n, k = 9, 530, 40
	a := fill(r, m*k)
	b := fill(r, k*n)
	bias := fill(r, m)
	want := make([]float64, m*n)
	Default().GEMM(m, n, k, a, b, bias, want)
	g := geom(16, 16, 3, 1, 1)
	xdw := fill(r, 2*8*g.H*g.W)
	wdw := fill(r, 8*g.K*g.K)
	bdw := fill(r, 8)
	wantDW := make([]float64, 2*8*g.OH*g.OW)
	Default().DWConv(g, 2, 8, xdw, wdw, bdw, wantDW)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, m*n)
			gotDW := make([]float64, len(wantDW))
			for it := 0; it < 20; it++ {
				be.GEMM(m, n, k, a, b, bias, got)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("race hammer GEMM mismatch at %d", i)
						return
					}
				}
				be.DWConv(g, 2, 8, xdw, wdw, bdw, gotDW)
				for i := range gotDW {
					if gotDW[i] != wantDW[i] {
						t.Errorf("race hammer DWConv mismatch at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestPolicy(t *testing.T) {
	if err := (Policy{}).Validate(); err != nil {
		t.Fatalf("zero policy invalid: %v", err)
	}
	if err := (Policy{Impl: "nope"}).Validate(); err == nil {
		t.Fatal("unknown impl accepted")
	}
	if err := (Policy{IntraWorkers: -1}).Validate(); err == nil {
		t.Fatal("negative workers accepted")
	}
	if err := (Policy{Impl: "naive"}).Validate(); err == nil {
		t.Fatal("retired naive backend accepted")
	}
	if got, want := Names(), []string{"blocked", "parallel"}; !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if Default() != MustNew(Policy{}) || Default().Name() != DefaultImpl {
		t.Fatalf("Default() = %+v, want the zero policy's backend %q", Default(), DefaultImpl)
	}
	// A policy only sets the worker count of a call.
	for _, tc := range []struct {
		p       Policy
		workers int
	}{
		{Policy{}, 0},
		{Policy{Impl: "blocked", IntraWorkers: 4}, 0},
		{Policy{Impl: "parallel", IntraWorkers: 3}, 3},
		{Policy{Impl: "parallel"}, IntraBudget(1)},
	} {
		be := MustNew(tc.p)
		if be.workers != tc.workers || be.Name() != cmp.Or(tc.p.Impl, DefaultImpl) {
			t.Errorf("MustNew(%+v) = %+v, want %d workers named %q", tc.p, be, tc.workers, cmp.Or(tc.p.Impl, DefaultImpl))
		}
	}
	if b := IntraBudget(0); b < 1 {
		t.Fatalf("IntraBudget(0) = %d", b)
	}
}

func TestDispatchMetrics(t *testing.T) {
	r := obs.NewRegistry()
	m := EnableMetrics(r)
	defer DisableMetrics()
	be := MustNew(Policy{Impl: "blocked"})
	a := []float64{1, 2, 3, 4}
	c := make([]float64, 4)
	be.GEMM(2, 2, 2, a, a, nil, c)
	be.Dot(a, a)
	if got := m.Dispatch("blocked", "gemm").Value(); got != 1 {
		t.Fatalf("gemm dispatch count = %d", got)
	}
	if got := m.Dispatch("blocked", "dot").Value(); got != 1 {
		t.Fatalf("dot dispatch count = %d", got)
	}
	// Calls count under the policy name they were resolved from.
	MustNew(Policy{Impl: "parallel", IntraWorkers: 2}).Dot(a, a)
	if got := m.Dispatch("parallel", "dot").Value(); got != 1 {
		t.Fatalf("parallel dot dispatch count = %d", got)
	}
	if m.Dispatch("blocked", "nope") != nil || m.Dispatch("nope", "gemm") != nil || m.Dispatch("naive", "gemm") != nil {
		t.Fatal("unknown labels should return nil")
	}
}

// TestTracedGEMM: a traced backend records one "kernels.gemm" span per
// GEMM of at least traceMinMACs and none for smaller calls, counts each
// call once, and computes the untraced bits.
func TestTracedGEMM(t *testing.T) {
	r := obs.NewRegistry()
	metrics := EnableMetrics(r)
	defer DisableMetrics()
	tr := obs.NewTracer(0)
	ctx := obs.WithTracer(context.Background(), tr)
	const m, n, k = 8, 256, 128 // m·n·k = traceMinMACs
	a, b, bias, want := gemmInputs(m, n, k)
	MustNew(Policy{Impl: "parallel", IntraWorkers: 2}).GEMM(m, n, k, a, b, bias, want)

	be := Traced(ctx, MustNew(Policy{Impl: "parallel", IntraWorkers: 2}))
	got := make([]float64, m*n)
	be.GEMM(m, n, k, a, b, bias, got)
	be.GEMM(2, 2, 2, a, b, nil, make([]float64, 4)) // below the gate
	if !slices.Equal(got, want) {
		t.Fatal("traced GEMM changed the result")
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "kernels.gemm" {
		t.Fatalf("recorded %d spans (%v), want one kernels.gemm", len(spans), spans)
	}
	attrs := map[string]any{}
	for _, at := range spans[0].Attrs {
		attrs[at.Key] = at.Value
	}
	if attrs["impl"] != "parallel" || attrs["m"] != m || attrs["n"] != n || attrs["k"] != k {
		t.Errorf("span attrs = %v", attrs)
	}
	if got := metrics.Dispatch("parallel", "gemm").Value(); got != 3 {
		t.Errorf("gemm dispatch count = %d, want 3 (one per call)", got)
	}
	// A context without a tracer, or re-tracing with one, drops the span
	// carrier again.
	if untraced := Traced(context.Background(), be); untraced != MustNew(Policy{Impl: "parallel", IntraWorkers: 2}) {
		t.Errorf("Traced without a tracer = %+v", untraced)
	}
}

// alexConv2 is the 64×576×3136 GEMM of AlexNet's (scaled) conv2, the
// shape perfbench's kernels.gemm_peak_gflops measures.
const alexM, alexK, alexN = 64, 576, 3136

// gemmInputs builds operands with no exact zeros, like He-initialized
// weights.
func gemmInputs(m, n, k int) (a, b, bias, c []float64) {
	r := rand.New(rand.NewSource(6))
	dense := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = r.NormFloat64() + 1e-9
		}
		return s
	}
	return dense(m * k), dense(k * n), dense(m), make([]float64, m*n)
}

func BenchmarkGEMMBackends(b *testing.B) {
	a, bb, bias, c := gemmInputs(alexM, alexN, alexK)
	for _, name := range Names() {
		be := MustNew(Policy{Impl: name})
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(8 * (alexM*alexK + alexK*alexN + alexM*alexN)))
			for i := 0; i < b.N; i++ {
				be.GEMM(alexM, alexN, alexK, a, bb, bias, c)
			}
		})
	}
}

// BenchmarkDWConvBackends times a 56×56×64 layer under its historical
// names, then mobilenet's 8×8×8 and 2×2×32 layers, the map sizes its
// profiling replays run.
func BenchmarkDWConvBackends(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		suffix       string
		hw, channels int
	}{{"", 56, 64}, {"-c8-hw8", 8, 8}, {"-c32-hw2", 2, 32}} {
		g := geom(tc.hw, tc.hw, 3, 1, 1)
		const batch = 1
		x := fill(r, batch*tc.channels*g.H*g.W)
		w := fill(r, tc.channels*g.K*g.K)
		bias := fill(r, tc.channels)
		out := make([]float64, batch*tc.channels*g.OH*g.OW)
		for _, name := range Names() {
			be := MustNew(Policy{Impl: name})
			b.Run(name+tc.suffix, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					be.DWConv(g, batch, tc.channels, x, w, bias, out)
				}
			})
		}
	}
}
