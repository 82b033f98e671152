// Command mupod-table2 regenerates Table II of the paper: the AlexNet
// per-layer bitwidth optimization example for the two objectives
// (#Input bandwidth and #MAC energy) at a 1% relative accuracy drop.
package main

import (
	"flag"
	"fmt"

	"mupod/internal/cli"
	"mupod/internal/experiments"
)

func main() {
	images := flag.Int("images", 30, "profiling images")
	points := flag.Int("points", 12, "Δ points per layer regression")
	eval := flag.Int("eval", 200, "images per accuracy evaluation")
	seed := flag.Uint64("seed", 1, "noise seed")
	run := cli.Flags("mupod-table2")
	flag.Parse()
	ctx := run.Start()

	res, err := experiments.Table2(ctx, experiments.Opts{
		ProfileImages: *images,
		ProfilePoints: *points,
		EvalImages:    *eval,
		Seed:          *seed,
		Workers:       run.Workers,
		Kernel:        run.Kernel,
	})
	run.Check(err)
	run.Finish()
	fmt.Print(res.String())
}
