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

// fillEdge is fill with −0 and subnormals mixed in beside the exact
// zeros.
func fillEdge(r *rand.Rand, n int) []float64 {
	s := fill(r, n)
	for i := range s {
		switch r.Intn(16) {
		case 0:
			s[i] = math.Copysign(0, -1)
		case 1:
			s[i] *= 0x1p-1060 // subnormal
		}
	}
	return s
}

// withNonFinite returns a copy of s with a NaN, a +Inf and a −Inf
// placed at random indexes (in that order, so on short inputs a later
// one may overwrite an earlier). Three such values leave most outputs
// of a long reduction finite, and those are still checked bit for bit
// beside the ones the values reach.
func withNonFinite(r *rand.Rand, s []float64) []float64 {
	s = slices.Clone(s)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if len(s) > 0 {
			s[r.Intn(len(s))] = v
		}
	}
	return s
}

// edgeBias returns a copy of bias with a −0 first and a NaN second
// entry, so the bias row runs both, the k = 0 path included.
func edgeBias(bias []float64) []float64 {
	b := slices.Clone(bias)
	b[0] = math.Copysign(0, -1)
	if len(b) > 1 {
		b[1] = math.NaN()
	}
	return b
}

// same reports whether a and b have the same bits, any NaN matching
// any NaN: which operand's payload an instruction propagates is the
// CPU's and the compiler's choice, not part of the kernels' contract.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// checkReLU fails unless got is ReLU of want at every index, bit for
// bit: the epilogue maps every NaN to +0.
func checkReLU(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(ReLU(want[i])) {
			t.Fatalf("%s with the ReLU epilogue: index %d is %v (%x), want ReLU(%v) = %v",
				what, i, got[i], math.Float64bits(got[i]), want[i], ReLU(want[i]))
		}
	}
}

// nanFilled returns n NaNs, so a check fails on any element a kernel
// leaves unwritten.
func nanFilled(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// refGEMM is the package's reduction-order contract written out: each
// element is one ascending-l math.FMA chain from the bias (+0 when
// nil). Every policy must match it bit for bit, so an unfused or
// reordered chain fails.
func refGEMM(m, n, k int, a, b, bias, c []float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			if bias != nil {
				acc = bias[i]
			}
			for l := 0; l < k; l++ {
				acc = math.FMA(a[i*k+l], b[l*n+j], acc)
			}
			c[i*n+j] = acc
		}
	}
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

// TestGEMMEquivalence pins every policy at 1 and 4 workers to refGEMM's
// bits. m runs through every residue mod 8 and n through every residue
// mod 4, so full and ragged tiles of the conv kernel GEMM runs on all
// run, and k = 0 leaves only the bias. The same 1×1 conv with the ReLU
// epilogue must give ReLU of those bits. Each shape runs on finite
// inputs, then on copies with a NaN, +Inf and −Inf placed in each
// operand and a −0 and a NaN in the bias, k = 0 included. It runs at
// whichever GOAMD64 level the test binary was built for, so both the
// Go and the x86-64-v3 assembly bodies of convTile are held to the
// same bits.
func TestGEMMEquivalence(t *testing.T) {
	type shape struct{ m, n, k int }
	shapes := []shape{
		{5, 7, 3}, {3, 2, 9}, {1, 513, 64}, {64, 37, 13},
		{16, 256, 27}, {7, 1030, 33}, {8, 300, 144},
	}
	for m := 1; m <= 17; m++ {
		for _, k := range []int{0, 1, 3, 4, 5, 288} {
			for _, n := range []int{1, 3, 4, 5, 16, 257} {
				shapes = append(shapes, shape{m, n, k})
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	special := rand.New(rand.NewSource(11)) // placements only, so r's inputs do not depend on them
	bes := backendsUnderTest(t)
	check := func(sh shape, a, b, bias []float64) {
		t.Helper()
		want := make([]float64, sh.m*sh.n)
		refGEMM(sh.m, sh.n, sh.k, a, b, bias, want)
		for name, be := range bes {
			got := nanFilled(len(want)) // every element must be written
			be.GEMM(sh.m, sh.n, sh.k, a, b, bias, got)
			for i := range got {
				if !same(got[i], want[i]) {
					t.Fatalf("%s GEMM %+v (bias %t): index %d is %x, want the FMA chain's %x",
						name, sh, bias != nil, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			fused := nanFilled(len(want))
			g := ConvGeom{H: 1, W: sh.n, K: 1, Stride: 1, OH: 1, OW: sh.n}
			be.Conv(g, 1, sh.k, sh.m, b, a, bias, fused, true)
			checkReLU(t, fmt.Sprintf("%s GEMM %+v (bias %t)", name, sh, bias != nil), fused, want)
		}
	}
	for _, sh := range shapes {
		a, b, bias := fillEdge(r, sh.m*sh.k), fillEdge(r, sh.k*sh.n), fillEdge(r, sh.m)
		check(sh, a, b, bias)
		check(sh, a, b, nil)
		check(sh, withNonFinite(special, a), withNonFinite(special, b), edgeBias(bias))
	}
}

// refDWConv is a 7-loop depthwise reference with per-pixel bounds
// checks, mirroring internal/refcheck; a nil bias is zero.
func refDWConv(g ConvGeom, batch, channels int, x, w, bias, out []float64) {
	for n := 0; n < batch; n++ {
		for c := 0; c < channels; c++ {
			for oh := 0; oh < g.OH; oh++ {
				for ow := 0; ow < g.OW; ow++ {
					acc := 0.0
					if bias != nil {
						acc = bias[c]
					}
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

// dwBackends is backendsUnderTest plus parallel backends at 2 and 3
// workers, whose four-plane shards split the groups differently.
func dwBackends(t *testing.T) map[string]Backend {
	bes := backendsUnderTest(t)
	for _, workers := range []int{2, 3} {
		bes[fmt.Sprintf("parallel/w%d", workers)] = MustNew(Policy{Impl: "parallel", IntraWorkers: workers})
	}
	return bes
}

// checkDWConv holds DWConv to its contract on one problem: the Go body
// dwconvHoisted must give refDWConv's bits, and every backend's DWConv
// (the x86-64-v3 body at that level) and RunPack on the PackDW of the
// same weights the Go body's, into NaN-filled outputs; with the ReLU
// epilogue, ReLU of those bits.
func checkDWConv(t *testing.T, g ConvGeom, batch, channels int, x, w, bias []float64, bes map[string]Backend) {
	t.Helper()
	planes := batch * channels
	want := make([]float64, planes*g.OH*g.OW)
	refDWConv(g, batch, channels, x, w, bias, want)
	body := nanFilled(len(want))
	dwconvHoisted(g, 0, planes, channels, x, w, bias, body, false)
	what := fmt.Sprintf("DWConv %+v batch=%d channels=%d (bias %t)", g, batch, channels, bias != nil)
	for i := range want {
		if !same(body[i], want[i]) {
			t.Fatalf("Go body of %s: index %d is %v, want the reference's %v", what, i, body[i], want[i])
		}
	}
	pk := PackDW(g, channels, w, bias)
	for name, be := range bes {
		for _, run := range []struct {
			how string
			f   func(out []float64, relu bool)
		}{
			{"", func(out []float64, relu bool) { be.DWConv(g, batch, channels, x, w, bias, out, relu) }},
			{" from its pack", func(out []float64, relu bool) { be.RunPack(pk, batch, x, out, relu) }},
		} {
			got := nanFilled(len(want))
			run.f(got, false)
			for i := range got {
				if !same(got[i], body[i]) {
					t.Fatalf("%s %s%s: index %d is %v (%x), want the Go body's %v (%x)",
						name, what, run.how, i, got[i], math.Float64bits(got[i]), body[i], math.Float64bits(body[i]))
				}
			}
			fused := nanFilled(len(want))
			run.f(fused, true)
			checkReLU(t, name+" "+what+run.how, fused, body)
		}
	}
}

// TestDWConvEquivalence covers odd shapes: 1×1 kernels, stride > K,
// zero-pad-dominant windows, degenerate rows, and mobilenet's 1×1 and
// 2×2 maps, on inputs, weights and biases that mix in ±0 and
// subnormals, then on copies with NaN and ±Inf placed in each and a −0
// and a NaN in the bias.
func TestDWConvEquivalence(t *testing.T) {
	cases := []struct {
		g               ConvGeom
		batch, channels int
	}{
		{geom(8, 8, 3, 1, 1), 2, 3},
		{geom(5, 5, 1, 1, 0), 1, 4}, // 1x1
		{geom(9, 7, 2, 3, 0), 2, 2}, // stride > K
		{geom(4, 4, 3, 1, 2), 1, 3}, // pad-dominant (pad = K-1..)
		{geom(4, 4, 3, 1, 3), 2, 5}, // pad = K: pixels with no valid tap
		{geom(1, 6, 3, 1, 1), 2, 1}, // single-row input
		{geom(12, 12, 5, 2, 2), 1, 8},
		// 15 planes: the last four-plane group is short, and groups
		// span image boundaries; large enough for parallel to shard.
		{geom(16, 16, 3, 1, 1), 3, 5},
		{geom(1, 1, 3, 1, 1), 2, 3}, // 1×1 input (mobilenet dwconv26)
		{geom(2, 2, 3, 1, 1), 1, 7}, // 2×2 input (mobilenet dwconv10..22)
	}
	r := rand.New(rand.NewSource(2))
	bes := dwBackends(t)
	for _, tc := range cases {
		g := tc.g
		x := fillEdge(r, tc.batch*tc.channels*g.H*g.W)
		w := fillEdge(r, tc.channels*g.K*g.K)
		bias := fillEdge(r, tc.channels)
		checkDWConv(t, g, tc.batch, tc.channels, x, w, bias, bes)
		checkDWConv(t, g, tc.batch, tc.channels, x, w, nil, bes)
		checkDWConv(t, g, tc.batch, tc.channels, withNonFinite(r, x), withNonFinite(r, w), edgeBias(bias), bes)
	}
}

// TestDWConvBodyMatchesGoBody sweeps the grid the x86-64-v3 body must
// match the Go body on: maps from 1×1 to 9×9 (and 9×1, 1×9), K 1–3,
// stride 1 and 2, pad 0 and 1, channel counts 1, 3, 4 and 10 (so most
// four-plane groups straddle channels and, at batch 3, images), with
// and without the ReLU epilogue, on finite inputs and then on copies
// with NaN and ±Inf placed in them.
func TestDWConvBodyMatchesGoBody(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	bes := dwBackends(t)
	maps := [][2]int{{9, 1}, {1, 9}}
	for hw := 1; hw <= 9; hw++ {
		maps = append(maps, [2]int{hw, hw})
	}
	for _, m := range maps {
		for k := 1; k <= 3; k++ {
			for stride := 1; stride <= 2; stride++ {
				for pad := 0; pad <= 1; pad++ {
					g := geom(m[0], m[1], k, stride, pad)
					if m[0]+2*pad < k || m[1]+2*pad < k {
						continue
					}
					for _, channels := range []int{1, 3, 4, 10} {
						batch := 1 + 2*(channels%2)
						x := fillEdge(r, batch*channels*g.H*g.W)
						w := fillEdge(r, channels*k*k)
						bias := fillEdge(r, channels)
						checkDWConv(t, g, batch, channels, x, w, bias, bes)
						checkDWConv(t, g, batch, channels, withNonFinite(r, x), withNonFinite(r, w), edgeBias(bias), bes)
					}
				}
			}
		}
	}
}

// FuzzDWConv checks random geometries, batches, channel counts and
// biases as checkDWConv does, on finite inputs and then on copies with
// NaN and ±Inf placed in them: H, W ≤ 12, K ≤ 5, stride ≤ 3, pad ≤ K,
// up to 12 channels, batch ≤ 3. In-range arguments are taken as they
// are; others wrap into range.
func FuzzDWConv(f *testing.F) {
	f.Add(2, 2, 3, 1, 1, 10, 3, true, int64(1))  // mobilenet's 2×2 maps, groups across images
	f.Add(1, 1, 3, 1, 1, 7, 2, false, int64(2))  // 1×1 maps
	f.Add(9, 9, 3, 2, 1, 5, 1, true, int64(3))   // stride 2
	f.Add(4, 4, 3, 1, 3, 4, 2, true, int64(4))   // pad = K
	f.Add(12, 7, 5, 3, 2, 12, 3, true, int64(5)) // K = 5, stride 3
	f.Fuzz(func(t *testing.T, h, w, k, stride, pad, channels, batch int, withBias bool, seed int64) {
		h, w, k = wrap(h, 1, 12), wrap(w, 1, 12), wrap(k, 1, 5)
		stride, pad = wrap(stride, 1, 3), wrap(pad, 0, k+1)
		channels, batch = wrap(channels, 1, 12), wrap(batch, 1, 3)
		if h+2*pad < k || w+2*pad < k {
			return
		}
		g := geom(h, w, k, stride, pad)
		r := rand.New(rand.NewSource(seed))
		x, wt := fillEdge(r, batch*channels*h*w), fillEdge(r, channels*k*k)
		var bias, edge []float64
		if withBias {
			bias = fillEdge(r, channels)
			edge = edgeBias(bias)
		}
		bes := dwBackends(t)
		checkDWConv(t, g, batch, channels, x, wt, bias, bes)
		checkDWConv(t, g, batch, channels, withNonFinite(r, x), withNonFinite(r, wt), edge, bes)
	})
}

// refMaxPool is max pooling written out with a branch: v replaces the
// best so far only when v > best, from −Inf.
func refMaxPool(g ConvGeom, planes int, x, out []float64) {
	for p := 0; p < planes; p++ {
		for oy := 0; oy < g.OH; oy++ {
			for ox := 0; ox < g.OW; ox++ {
				best := math.Inf(-1)
				for kh := 0; kh < g.K; kh++ {
					for kw := 0; kw < g.K; kw++ {
						if v := x[(p*g.H+oy*g.Stride+kh)*g.W+ox*g.Stride+kw]; v > best {
							best = v
						}
					}
				}
				out[(p*g.OH+oy)*g.OW+ox] = best
			}
		}
	}
}

// checkMaxPool holds MaxPool to its contract on one problem: every
// backend's MaxPool must give refMaxPool's bits, into NaN-filled
// outputs. A max of inputs is exact, so no NaN may differ.
func checkMaxPool(t *testing.T, g ConvGeom, planes int, x []float64) {
	t.Helper()
	want := make([]float64, planes*g.OH*g.OW)
	refMaxPool(g, planes, x, want)
	for name, be := range backendsUnderTest(t) {
		got := nanFilled(len(want))
		be.MaxPool(g, planes, x, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s MaxPool %+v planes=%d: index %d is %v (%x), want %v (%x)",
					name, g, planes, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestMaxPoolEdgeWindows pins the windows whose result depends on the
// selection rule: all NaN gives −Inf, NaN never wins, and of equal
// values (+0 and −0) the first stays.
func TestMaxPoolEdgeWindows(t *testing.T) {
	nan, inf, nz := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	// Window j is columns 2j, 2j+1 of both rows.
	x := []float64{
		nan, nan, 0, nz, nz, 0, nan, 1, -inf, -inf, inf, nan,
		nan, nan, nz, 0, 0, nz, nan, 2, -inf, -inf, nan, 3,
	}
	want := []float64{math.Inf(-1), 0, nz, 2, math.Inf(-1), inf}
	g := geom(2, 12, 2, 2, 0)
	checkMaxPool(t, g, 1, x)
	got := make([]float64, len(want))
	Default().MaxPool(g, 1, x, got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("window %d: max is %v (%x), want %v (%x)", i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestMaxPoolEquivalence sweeps 2×2 stride-2 pooling, every max-pool of
// the zoo, over maps from 2×2 to 9×15 (odd sizes drop their last row or
// column; output rows of 1 to 7 pixels run every mix of the v3 body's
// 4-, 2- and 1-pixel paths) and 1, 5 and 12 planes, then other windows
// and strides, on inputs that mix in ±0 and subnormals and then on
// copies with NaN and ±Inf placed in them.
func TestMaxPoolEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for h := 2; h <= 9; h++ {
		for w := 2; w <= 15; w++ {
			for _, planes := range []int{1, 5, 12} {
				x := fillEdge(r, planes*h*w)
				checkMaxPool(t, geom(h, w, 2, 2, 0), planes, x)
				checkMaxPool(t, geom(h, w, 2, 2, 0), planes, withNonFinite(r, x))
			}
		}
	}
	for _, g := range []ConvGeom{geom(9, 9, 3, 2, 0), geom(6, 5, 2, 1, 0), geom(7, 7, 3, 3, 0), geom(4, 4, 1, 1, 0), geom(16, 16, 2, 2, 0)} {
		x := fillEdge(r, 3*g.H*g.W)
		checkMaxPool(t, g, 3, x)
		checkMaxPool(t, g, 3, withNonFinite(r, x))
	}
}

// FuzzMaxPool checks random windows, strides, maps and plane counts as
// checkMaxPool does, on finite inputs and then on a copy with NaN and
// ±Inf placed in it: H, W ≤ 16, K ≤ 4, stride ≤ 3, up to 6 planes. Its
// seeds are 2×2 stride-2 windows, the zoo's. In-range arguments are
// taken as they are; others wrap into range.
func FuzzMaxPool(f *testing.F) {
	f.Add(16, 16, 2, 2, 3, int64(1)) // alexnet pool1
	f.Add(8, 8, 2, 2, 2, int64(2))
	f.Add(4, 4, 2, 2, 6, int64(3))
	f.Add(2, 2, 2, 2, 5, int64(4))  // vgg's 2×2 → 1×1
	f.Add(7, 5, 2, 2, 1, int64(5))  // odd sizes
	f.Add(9, 14, 2, 2, 2, int64(6)) // 7-pixel rows: the v3 body's 4-, 2- and 1-pixel paths
	f.Fuzz(func(t *testing.T, h, w, k, stride, planes int, seed int64) {
		h, w, k = wrap(h, 1, 16), wrap(w, 1, 16), wrap(k, 1, 4)
		stride, planes = wrap(stride, 1, 3), wrap(planes, 1, 6)
		if h < k || w < k {
			return
		}
		g := geom(h, w, k, stride, 0)
		r := rand.New(rand.NewSource(seed))
		x := fillEdge(r, planes*h*w)
		checkMaxPool(t, g, planes, x)
		checkMaxPool(t, g, planes, withNonFinite(r, x))
	})
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

// refIm2col is the bounds-checked per-element lowering of one [inC, H,
// W] image into its [inC·K·K, OH·OW] column matrix: each entry is read
// from the image or, outside it, set to zero.
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

// refConv is Conv's contract written out: each image's refIm2col column
// matrix times the weights through refGEMM.
func refConv(g ConvGeom, batch, inC, outC int, x, w, bias, out []float64) {
	k, n := inC*g.K*g.K, g.OH*g.OW
	cols := make([]float64, k*n)
	for i := 0; i < batch; i++ {
		refIm2col(g, inC, x[i*inC*g.H*g.W:], cols)
		refGEMM(outC, n, k, w, cols, bias, out[i*outC*n:])
	}
}

// checkConv compares every policy's Conv with refConv bit for bit (any
// NaN matching any NaN), into a NaN-filled output, and the same Conv
// with the ReLU epilogue with ReLU of refConv's bits; then the same for
// RunPack on the PackConv of the same weights.
func checkConv(t *testing.T, g ConvGeom, batch, inC, outC int, x, w, bias []float64) {
	t.Helper()
	want := make([]float64, batch*outC*g.OH*g.OW)
	refConv(g, batch, inC, outC, x, w, bias, want)
	pk := PackConv(g, inC, outC, w, bias)
	for name, be := range backendsUnderTest(t) {
		for _, run := range []struct {
			how string
			f   func(out []float64, relu bool)
		}{
			{"", func(out []float64, relu bool) { be.Conv(g, batch, inC, outC, x, w, bias, out, relu) }},
			{" from its pack", func(out []float64, relu bool) { be.RunPack(pk, batch, x, out, relu) }},
		} {
			what := fmt.Sprintf("%s Conv %+v batch=%d inC=%d outC=%d (bias %t)%s", name, g, batch, inC, outC, bias != nil, run.how)
			got := nanFilled(len(want)) // every element must be written
			run.f(got, false)
			for i := range got {
				if !same(got[i], want[i]) {
					t.Fatalf("%s: index %d is %x, want the FMA chain's %x",
						what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			fused := nanFilled(len(want))
			run.f(fused, true)
			checkReLU(t, what, fused, want)
		}
	}
}

// TestConvEquivalence pins every policy at 1 and 4 workers to refConv's
// bits. outC runs 1…17, so full and ragged 8-channel blocks run; the
// maps cover OH·OW mod 4 = 0, 1, 2 and 3 (1×1 included), so full and
// ragged 4-pixel tiles run; K is 1, 2, 3 or 5, stride 1–3, pad 0–3
// (pad > K included), with unpadded stride-1 1×1 convs, which read the
// image in place; batch is 1 or 3, the bias set or nil; inputs,
// weights and biases mix in ±0 and subnormals. Each case then runs on
// copies with a NaN, +Inf and −Inf placed in the inputs and in the
// weights and a −0 and a NaN in the bias, and every run also with the
// ReLU epilogue. It runs at whichever GOAMD64 level the test binary was
// built for, so the Go and the x86-64-v3 assembly bodies of convTile
// are held to the same bits.
func TestConvEquivalence(t *testing.T) {
	for _, tc := range []struct {
		g   ConvGeom
		inC int
	}{
		{geom(8, 8, 3, 1, 1), 3},    // 64 pixels
		{geom(5, 5, 3, 1, 1), 2},    // 25: one ragged pixel
		{geom(5, 4, 3, 2, 1), 3},    // 3×2 = 6: two ragged pixels, stride 2
		{geom(3, 5, 3, 1, 1), 2},    // 15: three ragged pixels
		{geom(1, 1, 3, 1, 1), 4},    // 1×1 map (a 1×1 input, K = 3)
		{geom(2, 2, 2, 1, 0), 3},    // 1×1 map, K = 2, unpadded
		{geom(9, 9, 3, 2, 1), 2},    // 5×5, stride 2, pad 1
		{geom(9, 9, 5, 2, 2), 1},    // K = 5, pad 2
		{geom(4, 4, 3, 1, 2), 2},    // pad 2: pad-dominant windows
		{geom(8, 6, 2, 2, 0), 2},    // K = 2, stride 2
		{geom(6, 6, 1, 1, 0), 5},    // unpadded stride-1 1×1: the image in place
		{geom(1, 7, 1, 1, 0), 3},    // the same, 7 pixels
		{geom(8, 8, 1, 2, 0), 4},    // 1×1, stride 2
		{geom(4, 4, 1, 1, 1), 3},    // 1×1, pad 1
		{geom(17, 17, 3, 1, 1), 1},  // 289 pixels: parallel shards two chunks
		{geom(9, 9, 2, 3, 0), 2},    // stride > K
		{geom(16, 16, 3, 2, 1), 3},  // stride 2, pad 1 (mobilenet conv1)
		{geom(2, 2, 3, 1, 1), 32},   // 2×2 input (nin conv10)
		{geom(1, 1, 3, 1, 1), 40},   // 1×1 input, 40 channels
		{geom(3, 5, 2, 1, 3), 2},    // pad > K
		{geom(4, 4, 3, 2, 3), 3},    // pad = K, strided
		{geom(16, 16, 3, 1, 1), 64}, // 256 pixels, k = 576
	} {
		for outC := 1; outC <= 17; outC++ {
			r := rand.New(rand.NewSource(int64(4 + outC)))
			g, batch := tc.g, 1+2*(outC%2)
			x := fillEdge(r, batch*tc.inC*g.H*g.W)
			w := fillEdge(r, outC*tc.inC*g.K*g.K)
			bias := fillEdge(r, outC)
			checkConv(t, g, batch, tc.inC, outC, x, w, bias)
			checkConv(t, g, batch, tc.inC, outC, x, w, nil)
			checkConv(t, g, batch, tc.inC, outC, withNonFinite(r, x), withNonFinite(r, w), edgeBias(bias))
		}
	}
}

// FuzzConv checks random geometries, batches, channel counts and biases
// against refConv, with and without the ReLU epilogue, on finite
// inputs and then on copies with NaN and ±Inf placed in them: H, W ≤
// 12, K ≤ 5, stride ≤ 3, pad ≤ K, up to 8 input and 20 output
// channels, batch ≤ 3. In-range arguments are taken as they are;
// others wrap into range.
func FuzzConv(f *testing.F) {
	f.Add(12, 12, 3, 2, 1, 3, 9, 2, true, int64(1)) // stride 2, pad 1
	f.Add(2, 2, 3, 1, 1, 8, 17, 1, false, int64(2)) // 2×2 input, K = 3
	f.Add(1, 1, 3, 1, 1, 4, 8, 3, true, int64(3))   // 1×1 input, K = 3
	f.Add(3, 5, 2, 3, 2, 2, 5, 2, true, int64(4))   // pad = K
	f.Add(7, 5, 1, 1, 0, 6, 12, 3, false, int64(5)) // unpadded 1×1, 35 pixels
	f.Fuzz(func(t *testing.T, h, w, k, stride, pad, inC, outC, batch int, withBias bool, seed int64) {
		h, w, k = wrap(h, 1, 12), wrap(w, 1, 12), wrap(k, 1, 5)
		stride, pad, inC = wrap(stride, 1, 3), wrap(pad, 0, k+1), wrap(inC, 1, 8)
		outC, batch = wrap(outC, 1, 20), wrap(batch, 1, 3)
		if h+2*pad < k || w+2*pad < k {
			return
		}
		g := geom(h, w, k, stride, pad)
		r := rand.New(rand.NewSource(seed))
		x, wt := fillEdge(r, batch*inC*h*w), fillEdge(r, outC*inC*k*k)
		var bias, edge []float64
		if withBias {
			bias = fillEdge(r, outC)
			edge = edgeBias(bias)
		}
		checkConv(t, g, batch, inC, outC, x, wt, bias)
		checkConv(t, g, batch, inC, outC, withNonFinite(r, x), withNonFinite(r, wt), edge)
	})
}

// FuzzIm2col checks Conv's receptive-field addressing on its own: with
// identity weights (outC = inC·K·K, w[o][l] = 1 for o = l, else 0) and
// no bias, output row o is row o of the column matrix, since each
// chain adds exact zeros around the one product 1·col[o][p]. Every
// policy must return refIm2col's matrix bit for bit (fill draws no
// −0). H, W ≤ 12, K ≤ 5, stride ≤ 3, pad ≤ K, up to 8 channels;
// in-range arguments are taken as they are, others wrap into range.
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
		x := fill(rand.New(rand.NewSource(seed)), inC*h*w)
		rows := inC * k * k
		want := make([]float64, rows*g.OH*g.OW)
		refIm2col(g, inC, x, want)
		eye := make([]float64, rows*rows)
		for o := 0; o < rows; o++ {
			eye[o*rows+o] = 1
		}
		for name, be := range backendsUnderTest(t) {
			got := make([]float64, len(want))
			be.Conv(g, 1, inC, rows, x, eye, nil, got, false)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s identity Conv %+v inC=%d: index %d is %v, want the column matrix's %v",
						name, g, inC, i, got[i], want[i])
				}
			}
		}
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
	Default().DWConv(g, 2, 8, xdw, wdw, bdw, wantDW, true)

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
				be.DWConv(g, 2, 8, xdw, wdw, bdw, gotDW, true)
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
	be.Fan(2, func(int) {})
	if got := m.Dispatch("blocked", "gemm").Value(); got != 1 {
		t.Fatalf("gemm dispatch count = %d", got)
	}
	// A conv counts one GEMM per image.
	g := geom(3, 3, 3, 1, 1)
	be.Conv(g, 3, 1, 2, make([]float64, 3*9), make([]float64, 2*9), nil, make([]float64, 3*2*9), true)
	if got := m.Dispatch("blocked", "gemm").Value(); got != 4 {
		t.Fatalf("gemm dispatch count after a batch-3 conv = %d, want 4", got)
	}
	if got := m.Dispatch("blocked", "fan").Value(); got != 1 {
		t.Fatalf("fan dispatch count = %d", got)
	}
	// A max-pool call counts as one fan, as pooling always has.
	be.MaxPool(geom(2, 2, 2, 2, 0), 3, make([]float64, 12), make([]float64, 3))
	if got := m.Dispatch("blocked", "fan").Value(); got != 2 {
		t.Fatalf("fan dispatch count after a max-pool = %d, want 2", got)
	}
	// Calls count under the policy name they were resolved from.
	MustNew(Policy{Impl: "parallel", IntraWorkers: 2}).Fan(2, func(int) {})
	if got := m.Dispatch("parallel", "fan").Value(); got != 1 {
		t.Fatalf("parallel fan dispatch count = %d", got)
	}
	if m.Dispatch("blocked", "dot") != nil || m.Dispatch("parallel", "axpy") != nil || m.Dispatch("blocked", "im2col") != nil {
		t.Fatal("retired ops should have no counter")
	}
	if m.Dispatch("blocked", "nope") != nil || m.Dispatch("nope", "gemm") != nil || m.Dispatch("naive", "gemm") != nil {
		t.Fatal("unknown labels should return nil")
	}
}

// TestTracedGEMM: a traced backend records one "kernels.gemm" span per
// GEMM of at least traceMinMACs, and per conv image of that size, and
// none for smaller calls, counts each GEMM and image once, and computes
// the untraced bits.
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
	// A batch-3 conv of 8·256·144 ≥ traceMinMACs per image: one span per
	// image.
	g := geom(16, 16, 3, 1, 1)
	const batch, inC, outC = 3, 16, 8
	rr := rand.New(rand.NewSource(8))
	x, w := fill(rr, batch*inC*g.H*g.W), fill(rr, outC*inC*g.K*g.K)
	wantConv := make([]float64, batch*outC*g.OH*g.OW)
	gotConv := make([]float64, len(wantConv))
	MustNew(Policy{Impl: "parallel", IntraWorkers: 2}).Conv(g, batch, inC, outC, x, w, bias, wantConv, false)
	be.Conv(g, batch, inC, outC, x, w, bias, gotConv, false)
	if !slices.Equal(gotConv, wantConv) {
		t.Fatal("traced Conv changed the result")
	}
	if spans := tr.Spans(); len(spans) != 1+batch {
		t.Fatalf("recorded %d spans after a batch-%d conv, want %d", len(spans), batch, 1+batch)
	}
	if got := metrics.Dispatch("parallel", "gemm").Value(); got != 3+2*batch {
		t.Errorf("gemm dispatch count = %d, want %d (one per image)", got, 3+2*batch)
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

// BenchmarkGEMMBackends times the AlexNet conv2 shape under each
// policy name, then, on the default policy, the per-image conv shapes
// the profiling replays run: (m, n, k) = (32, 16, 288) alexnet conv4,
// (24, 64, 24) nin conv5, (10, 4, 288) nin conv10, (32, 4, 32)
// mobilenet conv15 and (40, 1, 32) mobilenet conv25, whose single
// column runs one ragged tile per 8 rows.
func BenchmarkGEMMBackends(b *testing.B) {
	type shape struct {
		impl, suffix string
		m, n, k      int
	}
	var shapes []shape
	for _, name := range Names() {
		shapes = append(shapes, shape{name, "", alexM, alexN, alexK})
	}
	shapes = append(shapes,
		shape{DefaultImpl, "-alexnet-conv4", 32, 16, 288},
		shape{DefaultImpl, "-nin-conv5", 24, 64, 24},
		shape{DefaultImpl, "-nin-conv10", 10, 4, 288},
		shape{DefaultImpl, "-mobilenet-conv15", 32, 4, 32},
		shape{DefaultImpl, "-mobilenet-conv25", 40, 1, 32})
	for _, sh := range shapes {
		a, bb, bias, c := gemmInputs(sh.m, sh.n, sh.k)
		be := MustNew(Policy{Impl: sh.impl})
		b.Run(sh.impl+sh.suffix, func(b *testing.B) {
			b.SetBytes(int64(8 * (sh.m*sh.k + sh.k*sh.n + sh.m*sh.n)))
			for i := 0; i < b.N; i++ {
				be.GEMM(sh.m, sh.n, sh.k, a, bb, bias, c)
			}
		})
	}
}

// BenchmarkDWConvBackends times a 56×56×64 layer under its historical
// names, then mobilenet's 8×8×8 and 2×2×32 layers, the map sizes its
// profiling replays run, each with the ReLU epilogue that follows it in
// the zoo.
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
					be.DWConv(g, batch, tc.channels, x, w, bias, out, true)
				}
			})
		}
	}
}

// BenchmarkConvPack times a replay's conv call at batch 8, with the
// ReLU epilogue, two ways: packing per call (Conv, as a substituted
// layer or ForwardAll runs) and from a pack built once (RunPack, as
// exec.Plan runs each node's own layer). The shapes are the zoo's 4×4
// and 2×2 maps: alexnet conv4 (32 → 32 channels) and nin conv10 (32 →
// 10), both 3×3 with pad 1.
func BenchmarkConvPack(b *testing.B) {
	r := rand.New(rand.NewSource(12))
	for _, tc := range []struct {
		name          string
		hw, inC, outC int
	}{{"alexnet-conv4", 4, 32, 32}, {"nin-conv10", 2, 32, 10}} {
		const batch = 8
		g := geom(tc.hw, tc.hw, 3, 1, 1)
		x := fill(r, batch*tc.inC*g.H*g.W)
		w := fill(r, tc.outC*tc.inC*g.K*g.K)
		bias := fill(r, tc.outC)
		out := make([]float64, batch*tc.outC*g.OH*g.OW)
		be := Default()
		b.Run("per-call-"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				be.Conv(g, batch, tc.inC, tc.outC, x, w, bias, out, true)
			}
		})
		pk := PackConv(g, tc.inC, tc.outC, w, bias)
		b.Run("packed-"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				be.RunPack(pk, batch, x, out, true)
			}
		})
	}
}

// BenchmarkMaxPool times the zoo's 2×2 stride-2 pools on a batch of 8:
// alexnet's 16×16×16 and 8×8×24 maps and nin's 4×4×32, whose output
// rows are 8, 4 and 2 pixels wide.
func BenchmarkMaxPool(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ hw, planes int }{{16, 8 * 16}, {8, 8 * 24}, {4, 8 * 32}} {
		g := geom(tc.hw, tc.hw, 2, 2, 0)
		x := fill(r, tc.planes*g.H*g.W)
		out := make([]float64, tc.planes*g.OH*g.OW)
		be := Default()
		b.Run(fmt.Sprintf("hw%d", tc.hw), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				be.MaxPool(g, tc.planes, x, out)
			}
		})
	}
}
