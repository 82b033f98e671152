package rng

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("seed 0 produced a degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %.4f, want ≈ 0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Errorf("uniform variance = %.4f, want ≈ %.4f", variance, 1.0/12)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-2.5, 3.5)
		if v < -2.5 || v >= 3.5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	seen := make([]bool, 7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("Intn never produced %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(17)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed content: %v", xs)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(19)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %.4f, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %.4f, want ≈ 1", variance)
	}
}

func TestNormalScaled(t *testing.T) {
	r := New(23)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.NormalScaled(5, 0.5)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.02 {
		t.Errorf("scaled normal mean = %.4f, want ≈ 5", mean)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(31)
	b := a.Split()
	// The split stream must differ from the parent's continuation.
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split stream tracks parent (%d collisions)", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a1, a2 := New(37), New(37)
	b1, b2 := a1.Split(), a2.Split()
	for i := 0; i < 32; i++ {
		if b1.Uint64() != b2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestQuickUniformInRange(t *testing.T) {
	f := func(seed uint64, lo, hi int16) bool {
		l, h := float64(lo), float64(hi)
		if l >= h {
			return true
		}
		r := New(seed)
		for i := 0; i < 20; i++ {
			v := r.Uniform(l, h)
			if v < l || v >= h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// uniformLoop is the per-element loop AddUniform replaces: one
// r.Uniform(-delta, delta) call per drawn element.
func uniformLoop(r *RNG, dst, src []float64, delta float64, includeZeros bool) {
	for i, v := range src {
		if v == 0 && !includeZeros {
			dst[i] = v
			continue
		}
		dst[i] = v + r.Uniform(-delta, delta)
	}
}

// checkAddUniform runs AddUniform and the reference loop on copies of
// src from one seed, into a separate dst and in place, and compares
// every output bit and the generators' next output.
func checkAddUniform(t *testing.T, seed uint64, src []float64, delta float64, includeZeros bool) {
	t.Helper()
	want := make([]float64, len(src))
	ref := New(seed)
	uniformLoop(ref, want, src, delta, includeZeros)
	next := ref.Uint64()

	in := append([]float64(nil), src...)
	sep := make([]float64, len(src))
	aliased := append([]float64(nil), src...)
	for name, run := range map[string]func(r *RNG) []float64{
		"separate dst": func(r *RNG) []float64 { r.AddUniform(sep, in, delta, includeZeros); return sep },
		"aliased dst":  func(r *RNG) []float64 { r.AddUniform(aliased, aliased, delta, includeZeros); return aliased },
	} {
		r := New(seed)
		got := run(r)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d δ=%g includeZeros=%v %s: element %d (src %g) = %g (%#x), Uniform loop %g (%#x)",
					seed, delta, includeZeros, name, i, src[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		if n := r.Uint64(); n != next {
			t.Fatalf("seed %d δ=%g includeZeros=%v %s: next Uint64 %#x, Uniform loop leaves %#x", seed, delta, includeZeros, name, n, next)
		}
	}
	for i := range src {
		if math.Float64bits(in[i]) != math.Float64bits(src[i]) {
			t.Fatalf("AddUniform into a separate dst changed src[%d]", i)
		}
	}
}

func TestAddUniformMatchesUniformLoop(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 0x1p-1022, -0x1p-1023, math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.1, -3.75, 1e300, -1e-300,
	}
	deltas := []float64{0.05, 1, 0x1p-1074, 1e-300, 1e300, math.MaxFloat64, 0, -0.5}
	for seed := uint64(0); seed < 64; seed++ {
		r := New(seed ^ 0xa11)
		src := make([]float64, 97)
		for i := range src {
			switch r.Intn(3) {
			case 0:
				src[i] = specials[r.Intn(len(specials))]
			case 1:
				src[i] = 0
			default:
				src[i] = r.Uniform(-4, 4)
			}
		}
		for _, delta := range deltas {
			for _, includeZeros := range []bool{false, true} {
				checkAddUniform(t, seed, src, delta, includeZeros)
			}
		}
	}
	checkAddUniform(t, 1, nil, 0.5, false)
}

func TestAddUniformLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddUniform with unequal lengths did not panic")
		}
	}()
	New(1).AddUniform(make([]float64, 3), make([]float64, 4), 0.5, false)
}

// FuzzAddUniform checks AddUniform against the Uniform loop on
// arbitrary float64 inputs (8 bytes each), seeds and δ.
func FuzzAddUniform(f *testing.F) {
	f.Add(uint64(1), 0.5, false, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint64(7), 1e-300, true, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Fuzz(func(t *testing.T, seed uint64, delta float64, includeZeros bool, data []byte) {
		src := make([]float64, len(data)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkAddUniform(t, seed, src, delta, includeZeros)
	})
}

// BenchmarkAddUniform compares the bulk loop with one Uniform call per
// element on 2^18 values, half of them exact zeros.
func BenchmarkAddUniform(b *testing.B) {
	src := make([]float64, 1<<18)
	r := New(5)
	for i := range src {
		if i%2 == 0 {
			src[i] = r.Uniform(-1, 1)
		}
	}
	dst := make([]float64, len(src))
	b.Run("uniform-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			uniformLoop(r, dst, src, 0.01, false)
		}
	})
	b.Run("add-uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.AddUniform(dst, src, 0.01, false)
		}
	})
}
