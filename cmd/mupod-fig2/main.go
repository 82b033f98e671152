// Command mupod-fig2 regenerates Fig. 2 of the paper: the per-layer
// linear relationship between the injected uniform-noise boundary Δ_XK
// and the induced output-error standard deviation σ_{Y_K→Ł} (Eq. 5),
// measured on VGG-19 and GoogleNet (or any other zoo network).
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
	models := flag.String("models", "vgg19,googlenet", "comma-separated networks to measure")
	images := flag.Int("images", 40, "profiling images")
	points := flag.Int("points", 16, "Δ points per layer regression")
	seed := flag.Uint64("seed", 1, "noise seed")
	scatter := flag.Int("scatter", 2, "number of layers to render as ASCII scatter plots")
	run := cli.Flags("mupod-fig2")
	flag.Parse()
	ctx := run.Start()

	for _, m := range strings.Split(*models, ",") {
		a := zoo.Arch(strings.TrimSpace(m))
		if _, ok := zoo.AnalyzableLayers[a]; !ok {
			run.Check(fmt.Errorf("unknown model %q", m))
		}
		res, err := experiments.Fig2(ctx, a, experiments.Opts{
			ProfileImages: *images,
			ProfilePoints: *points,
			Seed:          *seed,
			Workers:       run.Workers,
			Kernel:        run.Kernel,
		})
		run.Check(err)
		fmt.Print(res.String())
		for i := 0; i < *scatter && i < len(res.Layers); i++ {
			// Spread the rendered layers across the network.
			idx := i * (len(res.Layers) - 1) / max(1, *scatter-1)
			fmt.Println()
			fmt.Print(res.ScatterASCII(idx, 48, 12))
		}
		fmt.Println()
	}
	run.Finish()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
