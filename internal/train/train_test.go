package train

import (
	"context"
	"math"
	"testing"

	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/rng"
	"mupod/internal/tensor"
)

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln 4.
	logits := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %v, want ln4", loss)
	}
	// Gradient rows sum to zero.
	for n := 0; n < 2; n++ {
		sum := 0.0
		for c := 0; c < 4; c++ {
			sum += grad.Data[n*4+c]
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("grad row %d sums to %v", n, sum)
		}
	}
	// True-class entry is negative, others positive.
	if grad.Data[0] >= 0 || grad.Data[1] <= 0 {
		t.Fatalf("grad signs wrong: %v", grad.Data[:4])
	}
}

func TestSoftmaxCrossEntropyGradientNumerically(t *testing.T) {
	r := rng.New(1)
	logits := tensor.New(3, 5)
	for i := range logits.Data {
		logits.Data[i] = r.Uniform(-2, 2)
	}
	labels := []int{1, 4, 0}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const eps = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > 1e-6 {
			t.Fatalf("grad[%d] = %v, numerical %v", i, grad.Data[i], num)
		}
	}
}

func TestSoftmaxCrossEntropyPanicsOnLabelMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SoftmaxCrossEntropy(tensor.New(2, 3), []int{0})
}

func TestBackwardThroughNetworkMatchesNumerical(t *testing.T) {
	// End-to-end finite-difference check of Backward on a small net.
	r := rng.New(2)
	net := nn.NewNetwork("t", []int{1, 4, 4}, 3)
	c := nn.NewConv2D(1, 2, 3, 1, 1)
	c.InitHe(r, 1)
	x := net.AddNode("conv", c, 0)
	x = net.AddNode("relu", nn.ReLU{}, x)
	x = net.AddNode("flatten", nn.Flatten{}, x)
	fc := nn.NewDense(32, 3)
	fc.InitHe(r, 1)
	net.AddNode("fc", fc, x)

	in := tensor.New(2, 1, 4, 4)
	for i := range in.Data {
		in.Data[i] = r.Uniform(-1, 1)
	}
	labels := []int{0, 2}

	lossOf := func() float64 {
		acts := net.ForwardAll(in)
		l, _ := SoftmaxCrossEntropy(acts[len(acts)-1], labels)
		return l
	}

	net.ZeroGrads()
	acts := net.ForwardAll(in)
	_, g := SoftmaxCrossEntropy(acts[len(acts)-1], labels)
	Backward(net, acts, g)

	const eps = 1e-6
	for _, p := range net.Params() {
		for j := 0; j < p.Value.Len(); j += 7 { // sample every 7th weight
			orig := p.Value.Data[j]
			p.Value.Data[j] = orig + eps
			lp := lossOf()
			p.Value.Data[j] = orig - eps
			lm := lossOf()
			p.Value.Data[j] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.Grad.Data[j]) > 1e-5 {
				t.Fatalf("%s[%d]: analytic %v vs numerical %v", p.Name, j, p.Grad.Data[j], num)
			}
		}
	}
}

func tinyProblem(seed uint64) (*nn.Network, *dataset.Dataset) {
	tr, _ := dataset.Generate(dataset.Config{H: 8, W: 8, Train: 80, Test: 0, Seed: seed})
	r := rng.New(seed)
	net := nn.NewNetwork("tiny", []int{3, 8, 8}, dataset.NumClasses)
	c := nn.NewConv2D(3, 6, 3, 2, 1)
	c.InitHe(r, 1)
	x := net.AddNode("conv", c, 0)
	x = net.AddNode("relu", nn.ReLU{}, x)
	x = net.AddNode("flatten", nn.Flatten{}, x)
	fc := nn.NewDense(6*4*4, dataset.NumClasses)
	fc.InitHe(r, 1)
	net.AddNode("fc", fc, x)
	return net, tr
}

func TestRunReducesLossAdam(t *testing.T) {
	net, tr := tinyProblem(3)
	h := Run(net, tr, Config{Optimizer: Adam, Steps: 80, BatchSize: 8, Seed: 1})
	first := h.Losses[0]
	if h.FinalLoss >= first {
		t.Fatalf("Adam did not reduce loss: %v → %v", first, h.FinalLoss)
	}
	if h.FinalLoss > 1.5 {
		t.Fatalf("final loss too high: %v", h.FinalLoss)
	}
}

func TestRunReducesLossSGD(t *testing.T) {
	net, tr := tinyProblem(4)
	h := Run(net, tr, Config{Optimizer: SGD, LR: 0.02, Steps: 80, BatchSize: 8, Seed: 1})
	if h.FinalLoss >= h.Losses[0] {
		t.Fatalf("SGD did not reduce loss: %v → %v", h.Losses[0], h.FinalLoss)
	}
}

func TestRunDeterministic(t *testing.T) {
	n1, tr := tinyProblem(5)
	n2, _ := tinyProblem(5)
	Run(n1, tr, Config{Steps: 20, BatchSize: 4, Seed: 9})
	Run(n2, tr, Config{Steps: 20, BatchSize: 4, Seed: 9})
	p1, p2 := n1.Params(), n2.Params()
	for i := range p1 {
		for j := range p1[i].Value.Data {
			if p1[i].Value.Data[j] != p2[i].Value.Data[j] {
				t.Fatal("training is not deterministic")
			}
		}
	}
}

func TestAccuracyImprovesWithTraining(t *testing.T) {
	net, tr := tinyProblem(6)
	accuracy := func() float64 {
		acc, err := exec.Accuracy(context.Background(), 1, kernels.Policy{}, net, tr, 0, 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	before := accuracy()
	Run(net, tr, Config{Optimizer: Adam, Steps: 120, BatchSize: 8, Seed: 2})
	after := accuracy()
	if after <= before+0.2 {
		t.Fatalf("training accuracy %v → %v", before, after)
	}
	if after < 0.6 {
		t.Fatalf("trained accuracy only %v", after)
	}
}

func TestGradClipKicksIn(t *testing.T) {
	// With an absurdly small clip the update magnitudes shrink; just
	// check training still runs and loss stays finite.
	net, tr := tinyProblem(7)
	h := Run(net, tr, Config{Steps: 10, BatchSize: 4, ClipNorm: 1e-6, Seed: 1})
	for _, l := range h.Losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatal("loss diverged with tight clipping")
		}
	}
}

func TestHistoryLength(t *testing.T) {
	net, tr := tinyProblem(8)
	h := Run(net, tr, Config{Steps: 15, BatchSize: 4, Seed: 1})
	if len(h.Losses) != 15 {
		t.Fatalf("history has %d entries", len(h.Losses))
	}
}
