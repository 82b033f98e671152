package mupod

// The unified execution engine's headline guarantee: every pipeline
// stage is BIT-IDENTICAL at every worker count. Parallelism must be a
// pure latency/CPU trade — noise streams are pre-split in sequential
// consumption order and reductions run in fixed index order, so a
// profile, a σ search, or a full guarded allocation computed on eight
// workers equals the sequential one float64-for-float64. These tests
// pin that contract on the shared trained fixture.

import (
	"reflect"
	"testing"

	"mupod/internal/core"
	"mupod/internal/exec"
	"mupod/internal/groups"
	"mupod/internal/kernels"
	"mupod/internal/obs"
	"mupod/internal/profile"
	"mupod/internal/search"
	"mupod/internal/testnet"
	"mupod/internal/weights"
)

func TestProfileBitIdenticalAcrossWorkers(t *testing.T) {
	net, _, te := testnet.Trained()
	cfgFor := func(w int) profile.Config {
		return profile.Config{Images: 16, Points: 6, Seed: 7, Workers: w}
	}
	ref, err := profile.Run(net, te, cfgFor(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		got, err := profile.Run(net, te, cfgFor(w))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Layers, got.Layers) {
			for k := range ref.Layers {
				if !reflect.DeepEqual(ref.Layers[k], got.Layers[k]) {
					t.Fatalf("workers=%d: layer %s diverges:\nseq: %+v\npar: %+v",
						w, ref.Layers[k].Name, ref.Layers[k], got.Layers[k])
				}
			}
			t.Fatalf("workers=%d: profile diverges", w)
		}
	}
}

// TestGroupsProfileBitIdenticalAcrossWorkers pins the shared sweep
// engine on channel-group targets.
func TestGroupsProfileBitIdenticalAcrossWorkers(t *testing.T) {
	net, _, te := testnet.Trained()
	assertBitIdenticalAcrossWorkers(t, func(w int) ([]groups.GroupProfile, error) {
		p, err := groups.Run(net, te, groups.Config{Groups: 3, Profile: profile.Config{Images: 16, Points: 6, Seed: 7, Workers: w}})
		if err != nil {
			return nil, err
		}
		return p.Groups, nil
	})
}

// TestWeightsProfileBitIdenticalAcrossWorkers pins the shared sweep
// engine on weight targets, whose replays run on worker-private
// perturbed weights.
func TestWeightsProfileBitIdenticalAcrossWorkers(t *testing.T) {
	net, _, te := testnet.Trained()
	assertBitIdenticalAcrossWorkers(t, func(w int) ([]weights.LayerWeightProfile, error) {
		p, err := weights.Run(net, te, weights.Config{Images: 16, Points: 6, Seed: 7, Workers: w})
		if err != nil {
			return nil, err
		}
		return p.Layers, nil
	})
}

// assertBitIdenticalAcrossWorkers compares the per-source results of
// run at workers 2, 4 and 8 with the sequential run.
func assertBitIdenticalAcrossWorkers[T any](t *testing.T, run func(workers int) ([]T, error)) {
	t.Helper()
	ref, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		got, err := run(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d sources, sequential %d", w, len(got), len(ref))
		}
		for k := range ref {
			if !reflect.DeepEqual(ref[k], got[k]) {
				t.Fatalf("workers=%d: source %d diverges:\nseq: %+v\npar: %+v", w, k, ref[k], got[k])
			}
		}
	}
}

func TestSearchBitIdenticalAcrossWorkers(t *testing.T) {
	net, _, te := testnet.Trained()
	prof, err := profile.Run(net, te, profile.Config{Images: 16, Points: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []search.Scheme{search.Scheme1Uniform, search.Scheme2Gaussian} {
		optsFor := func(w int) search.Options {
			return search.Options{Scheme: scheme, RelDrop: 0.05, EvalImages: 120, Seed: 3, Workers: w}
		}
		ref, err := search.Run(net, prof, te, optsFor(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{3, 8} {
			got, err := search.Run(net, prof, te, optsFor(w))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("scheme %v workers=%d: search result diverges:\nseq: %+v\npar: %+v", scheme, w, ref, got)
			}
		}
	}
}

func TestAllocationBitIdenticalAcrossWorkers(t *testing.T) {
	net, _, te := testnet.Trained()
	run := func(w int) *core.Result {
		res, err := core.Run(net, te, core.Config{
			Profile:   profile.Config{Images: 16, Points: 6, Seed: 7},
			Search:    search.Options{Scheme: search.Scheme1Uniform, RelDrop: 0.05, EvalImages: 120, Seed: 3},
			Objective: core.MinimizeInputBits,
			Guard:     true,
			Workers:   w,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{4} {
		got := run(w)
		if !reflect.DeepEqual(ref.Allocation, got.Allocation) {
			t.Fatalf("workers=%d: allocation diverges:\nseq: %+v\npar: %+v", w, ref.Allocation, got.Allocation)
		}
		if !reflect.DeepEqual(ref.Search, got.Search) {
			t.Fatalf("workers=%d: embedded search result diverges", w)
		}
		if ref.GuardedSigma != got.GuardedSigma || ref.GuardRetries != got.GuardRetries {
			t.Fatalf("workers=%d: guard outcome diverges: σ %v vs %v, retries %d vs %d",
				w, ref.GuardedSigma, got.GuardedSigma, ref.GuardRetries, got.GuardRetries)
		}
	}
}

// TestAllocationBitIdenticalAcrossKernels pins the kernel layer's
// contract at pipeline scope: a full guarded run on the "parallel"
// backend — at ANY intra-op worker count — is float64-for-float64
// equal to the "blocked" run, which in turn equals the default (zero
// KernelPolicy) run. Intra-op tiling, like inter-op workers, is a pure
// latency/CPU trade.
func TestAllocationBitIdenticalAcrossKernels(t *testing.T) {
	net, _, te := testnet.Trained()
	run := func(pol kernels.Policy) *core.Result {
		res, err := core.Run(net, te, core.Config{
			Profile:   profile.Config{Images: 16, Points: 6, Seed: 7},
			Search:    search.Options{Scheme: search.Scheme1Uniform, RelDrop: 0.05, EvalImages: 120, Seed: 3},
			Objective: core.MinimizeInputBits,
			Guard:     true,
			Workers:   2,
			Kernel:    pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(kernels.Policy{})
	for _, pol := range []kernels.Policy{
		{Impl: "blocked"},
		{Impl: "parallel", IntraWorkers: 1},
		{Impl: "parallel", IntraWorkers: 5},
	} {
		got := run(pol)
		if !reflect.DeepEqual(ref.Allocation, got.Allocation) {
			t.Fatalf("kernel %+v: allocation diverges:\nref: %+v\ngot: %+v", pol, ref.Allocation, got.Allocation)
		}
		if !reflect.DeepEqual(ref.Search, got.Search) {
			t.Fatalf("kernel %+v: embedded search result diverges", pol)
		}
		if ref.GuardedSigma != got.GuardedSigma || ref.GuardRetries != got.GuardRetries {
			t.Fatalf("kernel %+v: guard outcome diverges: σ %v vs %v, retries %d vs %d",
				pol, ref.GuardedSigma, got.GuardedSigma, ref.GuardRetries, got.GuardRetries)
		}
	}
}

// TestAllocationBitIdenticalWithTelemetry pins that the observability
// layer only observes: a full guarded run with a live tracer AND engine
// metrics enabled is float64-for-float64 equal to the bare run, at 1
// and at 4 workers.
func TestAllocationBitIdenticalWithTelemetry(t *testing.T) {
	net, _, te := testnet.Trained()
	run := func(w int, telemetry bool) *core.Result {
		ctx := t.Context()
		if telemetry {
			reg := obs.NewRegistry()
			exec.EnableMetrics(reg)
			kernels.EnableMetrics(reg)
			t.Cleanup(exec.DisableMetrics)
			t.Cleanup(kernels.DisableMetrics)
			ctx = obs.WithTracer(ctx, obs.NewTracer(0))
		}
		res, err := core.RunContext(ctx, net, te, core.Config{
			Profile:   profile.Config{Images: 16, Points: 6, Seed: 7},
			Search:    search.Options{Scheme: search.Scheme1Uniform, RelDrop: 0.05, EvalImages: 120, Seed: 3},
			Objective: core.MinimizeInputBits,
			Guard:     true,
			Workers:   w,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1, false)
	for _, w := range []int{1, 4} {
		got := run(w, true)
		if !reflect.DeepEqual(ref.Allocation, got.Allocation) {
			t.Fatalf("telemetry on, workers=%d: allocation diverges", w)
		}
		if !reflect.DeepEqual(ref.Search, got.Search) {
			t.Fatalf("telemetry on, workers=%d: search result diverges", w)
		}
	}
}
