// Command mupod-fig3 regenerates Fig. 3 of the paper: classification
// accuracy versus the output-error budget σ_YŁ under the two validation
// schemes (equal_scheme and gaussian_approx), the worst-case ξ corner
// study (error bars), and the output-error histogram compared against a
// perfect N(0,1).
package main

import (
	"flag"
	"fmt"
	"strings"

	"mupod/internal/cli"
	"mupod/internal/experiments"
	"mupod/internal/zoo"
)

func main() {
	model := flag.String("model", "alexnet", "network to sweep")
	sigmaList := flag.String("sigmas", "0.05,0.1,0.2,0.4,0.8,1.6,3.2,6.4", "comma-separated σ_YŁ values")
	repeats := flag.Int("repeats", 3, "noise realizations per point")
	images := flag.Int("images", 24, "profiling images")
	eval := flag.Int("eval", 200, "images per accuracy evaluation")
	seed := flag.Uint64("seed", 1, "noise seed")
	run := cli.Flags("mupod-fig3")
	flag.Parse()
	ctx := run.Start()

	a := zoo.Arch(*model)
	if _, ok := zoo.AnalyzableLayers[a]; !ok {
		run.Check(fmt.Errorf("unknown model %q", *model))
	}
	var sigmas []float64
	for _, s := range strings.Split(*sigmaList, ",") {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &v); err != nil || v <= 0 {
			run.Check(fmt.Errorf("bad σ %q", s))
		}
		sigmas = append(sigmas, v)
	}

	res, err := experiments.Fig3(ctx, a, sigmas, *repeats, experiments.Opts{
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
