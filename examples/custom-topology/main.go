// Custom topology: define a network in the netdesc description
// language (the role Caffe's prototxt played for the paper's tool),
// train it briefly on the synthetic dataset, and push it through the
// whole precision-optimization pipeline — no Go code changes needed to
// optimize a new architecture. The same description can live in a file
// and be fed to `go run ./cmd/mupod -netfile my.net`.
//
// Run with:
//
//	go run ./examples/custom-topology
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"mupod"
	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/kernels"
	"mupod/internal/train"
)

const description = `
# A small residual network with an inception-style split.
network custom input=3x8x8 classes=10 seed=11

conv    stem    in=input inc=3 outc=8 k=3 stride=1 pad=1
relu    r0      in=stem
conv    a1x1    in=r0 inc=8 outc=4 k=1
conv    a3x3    in=r0 inc=8 outc=4 k=3 pad=1
concat  merged  in=a1x1,a3x3
relu    r1      in=merged
conv    proj    in=r1 inc=8 outc=8 k=1 gain=0.1
add     res     in=proj,r0
relu    r2      in=res
maxpool pool    in=r2 k=2 stride=2
conv    head    in=pool inc=8 outc=12 k=3 pad=1
relu    r3      in=head
gap     g       in=r3
fc      logits  in=g infeatures=12 outfeatures=10 analyzable=false
`

func main() {
	net, err := mupod.ParseNetwork(strings.NewReader(description))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %q: %d nodes, %d analyzable layers, %d parameters\n",
		net.Name, len(net.Nodes), len(net.AnalyzableNodes()), net.NumParams())

	tr, te := dataset.Generate(dataset.Config{H: 8, W: 8, Train: 500, Test: 300, Seed: 321})
	train.Run(net, tr, train.Config{Optimizer: train.Adam, LR: 0.004, Steps: 300, BatchSize: 8, Seed: 1})
	testAcc, err := exec.Accuracy(context.Background(), 0, kernels.Policy{}, net, te, 0, 32, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: test accuracy %.3f\n\n", testAcc)

	res, err := mupod.Run(net, te, mupod.Config{
		Profile:   mupod.ProfileConfig{Images: 20, Points: 10, Seed: 1},
		Search:    mupod.SearchOptions{Scheme: mupod.Scheme1Uniform, RelDrop: 0.05, Seed: 2},
		Objective: mupod.MinimizeInputBits,
		Guard:     true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("layer   ξ      format  bits")
	for _, l := range res.Allocation.Layers {
		fmt.Printf("%-7s %.3f  %-6s  %d\n", l.Name, l.Xi, l.Format, l.Bits)
	}
	acc := res.Allocation.Validate(net, te, 0)
	fmt.Printf("\nquantized accuracy %.3f (exact %.3f)\n", acc, res.Search.ExactAccuracy)

	// Round-trip the topology back out — what -netfile consumes.
	var sb strings.Builder
	if err := mupod.WriteNetwork(&sb, net); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserialized topology (%d lines) round-trips through ParseNetwork\n",
		strings.Count(sb.String(), "\n"))
}
