package testnet

import (
	"context"
	"testing"

	"mupod/internal/exec"
	"mupod/internal/kernels"
)

func TestTrainedFixtureQuality(t *testing.T) {
	net, tr, te := Trained()
	if net == nil || tr == nil || te == nil {
		t.Fatal("fixture incomplete")
	}
	acc, err := exec.Accuracy(context.Background(), 1, kernels.Policy{}, net, te, 0, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.7 {
		t.Fatalf("fixture test accuracy %v < 0.7 — downstream suites rely on a trained net", acc)
	}
	if got := len(net.AnalyzableNodes()); got != 4 {
		t.Fatalf("fixture has %d analyzable layers, suites assume 4", got)
	}
}

func TestTrainedIsMemoized(t *testing.T) {
	a, _, _ := Trained()
	b, _, _ := Trained()
	if a != b {
		t.Fatal("Trained must return the shared instance")
	}
}

func TestBuildReturnsFreshCopies(t *testing.T) {
	a := Build()
	b := Build()
	if a == b {
		t.Fatal("Build returned a shared instance")
	}
	// Same deterministic init…
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatal("Build is not deterministic")
			}
		}
	}
	// …but independent storage.
	pa[0].Value.Data[0] += 1
	if pb[0].Value.Data[0] == pa[0].Value.Data[0] {
		t.Fatal("Build instances share parameter storage")
	}
}
