// Package experiments regenerates every table and figure of the
// paper's evaluation (the per-experiment index lives in DESIGN.md §4).
// Each experiment is a pure function returning a structured result plus
// a String renderer; the cmd/ tools and the root bench harness are thin
// wrappers around these.
package experiments

import (
	"context"
	"fmt"

	"mupod/internal/core"
	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/profile"
	"mupod/internal/search"
	"mupod/internal/zoo"
)

// Opts sets the shared measurement budgets. The zero value gives the
// defaults used by the benchmark harness (sized for a single core);
// cmd tools expose flags to raise them.
type Opts struct {
	ProfileImages int    // images per regression point (default 24)
	ProfilePoints int    // Δ points per layer (default 10)
	EvalImages    int    // images per accuracy evaluation (default 200)
	Seed          uint64 // noise seed (default 1)
	Scheme        search.Scheme
	// Workers is the evaluation parallelism threaded into every
	// profiling and search stage (0 = GOMAXPROCS, 1 = sequential).
	// Results are bit-identical at any worker count.
	Workers int
	// Kernel is the kernel policy threaded into every forward pass
	// (zero value = serial). Like Workers it never changes an
	// experiment's numbers.
	Kernel kernels.Policy
}

func (o Opts) withDefaults() Opts {
	if o.ProfileImages == 0 {
		o.ProfileImages = 24
	}
	if o.ProfilePoints == 0 {
		o.ProfilePoints = 10
	}
	if o.EvalImages == 0 {
		o.EvalImages = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scheme == 0 {
		o.Scheme = search.Scheme1Uniform
	}
	return o
}

func (o Opts) profileConfig() profile.Config {
	return profile.Config{Images: o.ProfileImages, Points: o.ProfilePoints, Seed: o.Seed, Workers: o.Workers, Kernel: o.Kernel}
}

func (o Opts) searchOptions(relDrop float64) search.Options {
	return search.Options{
		Scheme:     o.Scheme,
		RelDrop:    relDrop,
		EvalImages: o.EvalImages,
		Seed:       o.Seed ^ 0x5eed,
		Workers:    o.Workers,
		Kernel:     o.Kernel,
	}
}

// exactAccuracy is the exact (no-injection, hence stateless) top-1
// evaluation, parallel across batches on o.Workers.
func exactAccuracy(ctx context.Context, l loaded, n int, o Opts) float64 {
	acc, _ := exec.Accuracy(ctx, o.Workers, o.Kernel, l.net, l.test, n, 32, nil)
	return acc
}

// loaded bundles what every experiment needs for one architecture.
type loaded struct {
	arch zoo.Arch
	net  *nn.Network
	test *dataset.Dataset
}

func load(a zoo.Arch) (loaded, error) {
	net, err := zoo.Load(a)
	if err != nil {
		return loaded{}, fmt.Errorf("experiments: loading %s: %w", a, err)
	}
	_, te := zoo.Data(a)
	return loaded{arch: a, net: net, test: te}, nil
}

// pipeline profiles once and returns guarded allocations optimized for
// both objectives at the given accuracy constraint, plus the searched σ
// (before any guard shrinking).
func pipeline(ctx context.Context, l loaded, relDrop float64, o Opts) (prof *profile.Profile, sigma float64, optIn, optMAC *core.Allocation, err error) {
	prof, err = profile.RunContext(ctx, l.net, l.test, o.profileConfig())
	if err != nil {
		return nil, 0, nil, nil, err
	}
	sr, err := search.RunContext(ctx, l.net, prof, l.test, o.searchOptions(relDrop))
	if err != nil {
		return nil, 0, nil, nil, err
	}
	sigma = sr.SigmaYL
	for _, obj := range []core.Objective{core.MinimizeInputBits, core.MinimizeMACBits} {
		cfg := core.Config{
			Objective: obj,
			Search:    o.searchOptions(relDrop),
			Guard:     true,
			Workers:   o.Workers,
			Kernel:    o.Kernel,
		}
		alloc, _, _, err := core.AllocateContext(ctx, l.net, l.test, prof, sr, cfg)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		if obj == core.MinimizeInputBits {
			optIn = alloc
		} else {
			optMAC = alloc
		}
	}
	return prof, sigma, optIn, optMAC, nil
}
