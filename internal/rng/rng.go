// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the repository for weight
// initialization, synthetic datasets and noise injection.
//
// Determinism matters here more than statistical perfection: every
// experiment in the paper reproduction must be exactly repeatable from a
// seed, including across machines, so we implement xoshiro256** plus a
// SplitMix64 seeder rather than depending on math/rand's unspecified
// default source. The generator is NOT safe for concurrent use; derive
// one generator per goroutine with Split.
package rng

import "math"

// RNG is a xoshiro256** generator. The zero value is not usable; create
// one with New.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances x and returns a well-mixed 64-bit value. It is the
// recommended seeding procedure for xoshiro generators.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically derived from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is independent of r's
// subsequent output. It consumes entropy from r.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Uniform returns a uniform value in [lo, hi). The explicit conversion
// keeps a compiler from fusing the multiply-add (the Go spec allows the
// fusion otherwise), so every platform rounds the product as AddUniform
// does.
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// AddUniform sets dst[i] = src[i] + u_i, where u_i are the values a loop
// of r.Uniform(-delta, delta) calls would return, in index order; r
// ends in the state that loop leaves. Exact zeros (±0) are copied
// through without a draw unless includeZeros, since fixed point
// represents zero exactly. It is the one uniform-noise loop of the
// injection sweeps and the σ search: the generator state stays in
// locals for the whole slice. dst and src must have equal lengths and
// may be the same slice.
func (r *RNG) AddUniform(dst, src []float64, delta float64, includeZeros bool) {
	if len(dst) != len(src) {
		panic("rng: AddUniform length mismatch")
	}
	dst = dst[:len(src)]
	lo := -delta
	span := delta - lo
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i, v := range src {
		if v == 0 && !includeZeros {
			dst[i] = v
			continue
		}
		// One Uint64 step, as in (*RNG).Uint64.
		x := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		f := float64(x>>11) * (1.0 / (1 << 53))
		dst[i] = v + (lo + float64(span*f))
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders the first n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Normal returns a standard normal deviate using the polar Box-Muller
// transform (no cached spare; simpler and still fast enough for this
// repository's workloads).
func (r *RNG) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// NormalScaled returns a Gaussian deviate with the given mean and
// standard deviation.
func (r *RNG) NormalScaled(mean, sd float64) float64 {
	return mean + sd*r.Normal()
}
