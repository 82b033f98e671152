// Command mupod-fig4 regenerates Fig. 4 of the paper: NiN optimized for
// MAC energy — power-hungry layers trade bitwidth against light layers,
// saving MAC energy at the cost of some bandwidth.
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
	run := cli.Flags("mupod-fig4")
	flag.Parse()
	ctx := run.Start()

	res, err := experiments.Fig4(ctx, experiments.Opts{
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
