// Command mupod runs the full precision-optimization pipeline on one
// model-zoo network and prints the resulting per-layer allocation, its
// effective bitwidths, the accelerator simulation, and the real
// quantized validation accuracy.
//
// Usage:
//
//	mupod -model alexnet -objective mac -drop 0.01 [-scheme 1]
//	      [-images 30] [-points 12] [-eval 200] [-summary]
//	      [-kernel blocked|parallel] [-intra-workers n]
//	      [-log level[,format]] [-trace out.json]
//
// With -trace, the run writes a Chrome trace-event file covering the
// whole pipeline (profile/search/solve/guard spans with per-layer and
// per-iteration children); load it in chrome://tracing or
// https://ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mupod/internal/accel"
	"mupod/internal/baseline"
	"mupod/internal/cli"
	"mupod/internal/core"
	"mupod/internal/dataset"
	"mupod/internal/energy"
	"mupod/internal/exec"
	"mupod/internal/fxnet"
	"mupod/internal/netdesc"
	"mupod/internal/nn"
	"mupod/internal/profile"
	"mupod/internal/report"
	"mupod/internal/search"
	"mupod/internal/train"
	"mupod/internal/zoo"
)

func main() {
	model := flag.String("model", "alexnet", "architecture: "+archList())
	netfile := flag.String("netfile", "", "network description file (overrides -model; see internal/netdesc)")
	trainSteps := flag.Int("train", 400, "training steps for -netfile networks")
	objective := flag.String("objective", "mac", `optimization objective: "input" (bandwidth) or "mac" (energy)`)
	drop := flag.Float64("drop", 0.01, "relative top-1 accuracy drop constraint")
	scheme := flag.Int("scheme", 1, "σ validation scheme: 1 (equal_scheme) or 2 (gaussian_approx)")
	images := flag.Int("images", 30, "profiling images")
	points := flag.Int("points", 12, "Δ points per layer regression")
	eval := flag.Int("eval", 200, "images per accuracy evaluation")
	seed := flag.Uint64("seed", 1, "noise seed")
	summary := flag.Bool("summary", false, "print the network topology and exit")
	run := cli.Flags("mupod")
	flag.Lookup("trace").Usage = "write a Chrome trace-event file of the pipeline run to this path"
	flag.Parse()
	ctx := run.Start()

	var net *nn.Network
	var test *dataset.Dataset
	if *netfile != "" {
		f, err := os.Open(*netfile)
		run.Check(err)
		net, err = netdesc.Parse(f)
		f.Close()
		run.Check(err)
		// Custom networks train on a synthetic split generated for
		// their input size (10 classes, 3 channels expected).
		if net.InputShape[0] != 3 {
			run.Check(fmt.Errorf("netfile networks must take 3-channel input (got %v)", net.InputShape))
		}
		var tr *dataset.Dataset
		tr, test = dataset.Generate(dataset.Config{
			H: net.InputShape[1], W: net.InputShape[2],
			Train: 600, Test: 400, Seed: *seed + 97,
		})
		fmt.Printf("training %s for %d steps on a synthetic split...\n", net.Name, *trainSteps)
		train.Run(net, tr, train.Config{Optimizer: train.Adam, LR: 0.003, Steps: *trainSteps, BatchSize: 8, Seed: *seed})
		acc, err := exec.Accuracy(ctx, run.Workers, run.Kernel, net, test, 0, 32, nil)
		run.Check(err)
		fmt.Printf("test accuracy: %.3f\n\n", acc)
	} else {
		arch := zoo.Arch(*model)
		if _, ok := zoo.AnalyzableLayers[arch]; !ok {
			run.Check(fmt.Errorf("unknown model %q (choose from %s)", *model, archList()))
		}
		var err error
		net, err = zoo.Load(arch)
		if err != nil {
			run.Check(fmt.Errorf("loading %s: %w", arch, err))
		}
		_, test = zoo.Data(arch)
	}
	if *summary {
		fmt.Print(net.Summary())
		return
	}

	var obj core.Objective
	switch *objective {
	case "input":
		obj = core.MinimizeInputBits
	case "mac":
		obj = core.MinimizeMACBits
	default:
		run.Check(fmt.Errorf("unknown objective %q", *objective))
	}
	sch := search.Scheme1Uniform
	if *scheme == 2 {
		sch = search.Scheme2Gaussian
	}

	fmt.Printf("mupod: %s, objective %s, %.1f%% relative accuracy drop, scheme %v\n\n",
		net.Name, obj, *drop*100, sch)

	res, err := core.RunContext(ctx, net, test, core.Config{
		Profile:   profile.Config{Images: *images, Points: *points, Seed: *seed},
		Search:    search.Options{Scheme: sch, RelDrop: *drop, EvalImages: *eval, Seed: *seed ^ 0x5eed},
		Objective: obj,
		Guard:     true,
		Workers:   run.Workers,
		Kernel:    run.Kernel,
	})
	run.Check(err)
	run.Finish()
	if run.Trace != "" {
		fmt.Printf("trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n\n", run.Trace)
	}

	al := res.Allocation
	t := report.New("Layer", "ξ", "Δ", "format I.F", "bits", "#Input", "#MAC")
	for _, l := range al.Layers {
		t.AddStrings(l.Name,
			fmt.Sprintf("%.3f", l.Xi),
			fmt.Sprintf("%.4g", l.Delta),
			l.Format.String(),
			fmt.Sprintf("%d", l.Bits),
			fmt.Sprintf("%d", l.Inputs),
			fmt.Sprintf("%d", l.MACs))
	}
	fmt.Print(t.String())

	fmt.Printf("\nσ_YŁ = %.4f (found in %d evaluations; exact accuracy %.3f)\n",
		res.Search.SigmaYL, res.Search.Evaluations, res.Search.ExactAccuracy)
	fmt.Printf("effective bitwidth: input %.2f | MAC %.2f\n",
		al.EffectiveInputBits(), al.EffectiveMACBits())
	fmt.Printf("timing: profile %v | σ search %v | ξ solve %v\n",
		res.ProfileTime.Round(1e6), res.SearchTime.Round(1e6), res.SolveTime.Round(1e6))

	acc := al.Validate(net, test, 0)
	fmt.Printf("\nREAL quantized inference: accuracy %.3f (constraint ≥ %.3f)\n",
		acc, res.Search.ExactAccuracy*(1-*drop))

	if w, err := baseline.UniformWeightSearch(net, al, test, baseline.Options{RelDrop: *drop, EvalImages: *eval, Workers: run.Workers, Kernel: run.Kernel}); err == nil {
		fmt.Printf("uniform weight bitwidth (Sec. V-E): W = %d\n", w)
		fmt.Printf("MAC energy at W=%d: %.3g pJ/image\n", w, al.MACEnergy(energy.Default40nm, w))
		// True integer execution: cross-check accuracy and report the
		// accumulator width an RTL implementation needs.
		n := *eval
		if n > test.Len() {
			n = test.Len()
		}
		fxAcc, fxRep, err := fxnet.Accuracy(net, al, fxnet.Config{WeightBits: w, Workers: run.Workers}, test.Batch(0, n), test.Labels[:n], 32)
		if err == nil {
			fmt.Printf("integer-datapath inference (W=%d): accuracy %.3f, max accumulator %d bits\n",
				w, fxAcc, fxRep.MaxAccumulatorBits())
		}
	}
	if rep, err := accel.Simulate(al, accel.Config{}); err == nil {
		fmt.Printf("bit-serial accelerator: %.0f images/s, %.2f× speedup vs 16-bit\n",
			rep.ImagesPerSec, rep.Speedup)
	}
}

func archList() string {
	names := make([]string, len(zoo.All))
	for i, a := range zoo.All {
		names[i] = string(a)
	}
	return strings.Join(names, ", ")
}
