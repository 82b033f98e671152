package mupod

// The noise path's outputs, pinned bit for bit. determinism_test.go
// compares worker counts with each other, so a change that moves every
// count the same way passes it; this test compares each result with a
// constant instead. Every value is hashed as math.Float64bits in a
// fixed order. The σ searches run 100 evaluation images in batches of
// 32, so every probe includes a ragged last batch of 4.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"mupod/internal/core"
	"mupod/internal/groups"
	"mupod/internal/profile"
	"mupod/internal/search"
	"mupod/internal/testnet"
	"mupod/internal/weights"
)

// bitsHash is FNV-1a over the little-endian Float64bits of vs.
func bitsHash(vs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestNoisePathGolden(t *testing.T) {
	// The constants were recorded on amd64; other architectures may
	// fuse multiply-adds in the kernels and round differently.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constants are amd64 results; GOARCH is %s", runtime.GOARCH)
	}
	net, _, te := testnet.Trained()
	pcfg := profile.Config{Images: 16, Points: 6, Seed: 7, Workers: 2}
	prof, err := profile.Run(net, te, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	searchOpts := func(s search.Scheme) search.Options {
		return search.Options{Scheme: s, RelDrop: 0.05, EvalImages: 100, BatchSize: 32, Seed: 3, Workers: 2}
	}
	probes := func(s search.Scheme) []float64 {
		res, err := search.Run(net, prof, te, searchOpts(s))
		if err != nil {
			t.Fatal(err)
		}
		var vs []float64
		for _, p := range res.Trace {
			vs = append(vs, p.Sigma, p.Accuracy)
		}
		return vs
	}

	cases := []struct {
		name   string
		want   uint64
		values func() []float64
	}{
		{"search scheme 1 probes", 0x2f823d8356fc3691, func() []float64 { return probes(search.Scheme1Uniform) }},
		{"search scheme 2 probes", 0x232cbe0c814d76ec, func() []float64 { return probes(search.Scheme2Gaussian) }},
		{"profile σ, λ, θ", 0x578acd357eba1bd4, func() []float64 {
			var vs []float64
			for _, lp := range prof.Layers {
				vs = append(vs, lp.Sigmas...)
				vs = append(vs, lp.Lambda, lp.Theta)
			}
			return vs
		}},
		// groups.Profile keeps only the fit of each group's σ samples.
		{"groups fit", 0x7bd92e6856841270, func() []float64 {
			gp, err := groups.Run(net, te, groups.Config{Groups: 3, Profile: pcfg})
			if err != nil {
				t.Fatal(err)
			}
			var vs []float64
			for _, g := range gp.Groups {
				vs = append(vs, g.Lambda, g.Theta, g.R2)
			}
			return vs
		}},
		{"weights σ", 0xd2f1d20214ba839b, func() []float64 {
			wp, err := weights.Run(net, te, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			var vs []float64
			for _, lp := range wp.Layers {
				vs = append(vs, lp.Sigmas...)
			}
			return vs
		}},
		// A coarse profile and a 1% drop make the guard's first
		// allocation miss its target, so the guard runs two rounds.
		{"guarded allocation", 0xb3aa2efbc7753f4c, func() []float64 {
			opts := searchOpts(search.Scheme1Uniform)
			opts.RelDrop, opts.Seed = 0.01, 1
			res, err := core.Run(net, te, core.Config{
				Profile:   profile.Config{Images: 4, Points: 4, Seed: 7},
				Search:    opts,
				Objective: core.MinimizeInputBits,
				Guard:     true,
				Workers:   2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.GuardRetries == 0 {
				t.Errorf("guard passed its first round; the case no longer covers a retry")
			}
			vs := []float64{res.GuardedSigma, float64(res.GuardRetries)}
			for _, la := range res.Allocation.Layers {
				vs = append(vs, la.Xi, la.Delta, float64(la.Format.IntBits), float64(la.Format.FracBits))
			}
			return vs
		}},
	}
	for _, c := range cases {
		vs := c.values()
		if got := bitsHash(vs); got != c.want {
			t.Errorf("%s: hash %#016x over %d values, want %#016x", c.name, got, len(vs), c.want)
		}
	}
}
