// Command mupod-table3 regenerates Table III of the paper: effective
// bitwidths, bandwidth savings and MAC-energy savings for the eight
// CNNs at 1% and 5% relative accuracy drops, under both objectives.
//
// The full run profiles every layer of every network (including the
// 156-layer ResNet-152 sim); expect a few minutes on one core. Use
// -models to restrict the set.
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
	models := flag.String("models", "", "comma-separated subset (default: all eight)")
	drops := flag.String("drops", "0.01,0.05", "comma-separated relative accuracy drops")
	images := flag.Int("images", 16, "profiling images")
	points := flag.Int("points", 8, "Δ points per layer regression")
	eval := flag.Int("eval", 200, "images per accuracy evaluation")
	seed := flag.Uint64("seed", 1, "noise seed")
	run := cli.Flags("mupod-table3")
	flag.Parse()
	ctx := run.Start()

	archs := zoo.All
	if *models != "" {
		archs = nil
		for _, m := range strings.Split(*models, ",") {
			a := zoo.Arch(strings.TrimSpace(m))
			if _, ok := zoo.AnalyzableLayers[a]; !ok {
				run.Check(fmt.Errorf("unknown model %q", m))
			}
			archs = append(archs, a)
		}
	}
	var relDrops []float64
	for _, d := range strings.Split(*drops, ",") {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(d), "%g", &v); err != nil || v <= 0 {
			run.Check(fmt.Errorf("bad drop %q", d))
		}
		relDrops = append(relDrops, v)
	}

	res, err := experiments.Table3(ctx, archs, relDrops, experiments.Opts{
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
