// Command mupod-vs-search reproduces the Sec. VI-A cost comparison: the
// paper's analytic pipeline against the Stripes-style per-layer dynamic
// search, on wall-clock time, accuracy-evaluation count and result
// quality.
package main

import (
	"flag"
	"fmt"

	"mupod/internal/cli"
	"mupod/internal/experiments"
	"mupod/internal/zoo"
)

func main() {
	model := flag.String("model", "googlenet", "network to compare on")
	drop := flag.Float64("drop", 0.05, "relative accuracy drop constraint")
	images := flag.Int("images", 16, "profiling images")
	eval := flag.Int("eval", 200, "images per accuracy evaluation")
	seed := flag.Uint64("seed", 1, "noise seed")
	run := cli.Flags("mupod-vs-search")
	flag.Parse()
	ctx := run.Start()

	a := zoo.Arch(*model)
	if _, ok := zoo.AnalyzableLayers[a]; !ok {
		run.Check(fmt.Errorf("unknown model %q", *model))
	}
	res, err := experiments.MethodVsSearch(ctx, a, *drop, experiments.Opts{
		ProfileImages: *images,
		EvalImages:    *eval,
		Seed:          *seed,
		Workers:       run.Workers,
		Kernel:        run.Kernel,
	})
	run.Check(err)
	run.Finish()
	fmt.Print(res.String())
}
