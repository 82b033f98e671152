package testnet

import (
	"context"
	"testing"

	"mupod/internal/exec"
	"mupod/internal/kernels"
	"mupod/internal/nn"
)

// Every ForwardInto kernel the execution engine implements must be
// reachable through some zoo fixture, or the differential self-check
// has a blind spot.
func TestZooCoversAllLayerKinds(t *testing.T) {
	want := map[string]bool{
		"conv": false, "dwconv": false, "fc": false, "flatten": false,
		"relu": false, "maxpool": false, "avgpool": false, "gap": false,
		"add": false, "concat": false,
	}
	for _, f := range Zoo() {
		for _, node := range f.Net.Nodes {
			if node.Layer == nil { // the input placeholder node
				continue
			}
			kind := node.Layer.Kind()
			if _, ok := want[kind]; ok {
				want[kind] = true
			}
		}
	}
	for kind, seen := range want {
		if !seen {
			t.Errorf("no zoo fixture contains a %q layer", kind)
		}
	}
}

func TestZooNetsForwardAndClassify(t *testing.T) {
	for _, f := range Zoo() {
		acts := f.Net.ForwardAll(f.Test.Batch(0, 16))
		preds := nn.Argmax(acts[len(acts)-1])
		if len(preds) != 16 {
			t.Fatalf("%s: %d predictions for 16 images", f.Name, len(preds))
		}
		acc, err := exec.Accuracy(context.Background(), 1, kernels.Policy{}, f.Net, f.Test, 0, 32, nil)
		if err != nil {
			t.Fatal(err)
		}
		if acc < 0.5 {
			t.Errorf("%s: trained fixture accuracy %.2f (should beat chance comfortably)", f.Name, acc)
		}
	}
}

func TestZooDeterministic(t *testing.T) {
	net, _, te := ZooNet("dwsep")
	sess := exec.NewSession(exec.NewPlan(net))
	a := nn.Argmax(sess.Forward(te.Batch(0, 8), nil))
	b := nn.Argmax(sess.Forward(te.Batch(0, 8), nil))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("repeated forward passes disagree")
		}
	}
	if _, _, third := ZooNet("dwsep"); third != te {
		t.Fatal("ZooNet must memoize the shared splits")
	}
}
