// Package train is the SGD training substrate. The paper uses
// pretrained Caffe Model Zoo networks; offline and in pure Go we must
// produce "learned weights" ourselves (DESIGN.md §2), so this package
// implements reverse-mode differentiation over the nn DAG plus a plain
// SGD-with-momentum loop with cosine learning-rate decay — enough to
// train the scaled-down zoo architectures to non-trivial accuracy on
// the synthetic dataset.
package train

import (
	"fmt"
	"math"

	"mupod/internal/dataset"
	"mupod/internal/nn"
	"mupod/internal/rng"
	"mupod/internal/tensor"
)

// Optimizer selects the update rule.
type Optimizer int

// Supported optimizers. Adam is the default: the zoo's narrow,
// normalization-free networks plateau under plain SGD but train
// reliably under Adam.
const (
	Adam Optimizer = iota
	SGD
)

// Config controls a training run.
type Config struct {
	Optimizer   Optimizer
	LR          float64 // peak learning rate (default 0.01 Adam, 0.05 SGD)
	Momentum    float64 // SGD momentum (default 0.9)
	WeightDecay float64 // L2 penalty (default 1e-4)
	BatchSize   int     // default 16
	Steps       int     // number of optimizer steps (default 300)
	Seed        uint64  // batch sampling seed
	ClipNorm    float64 // global gradient-norm clip; 0 disables (default 5)
	Verbose     bool    // print progress every ~10% of steps
}

func (c Config) withDefaults() Config {
	if c.LR == 0 {
		if c.Optimizer == Adam {
			c.LR = 0.01
		} else {
			c.LR = 0.05
		}
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.WeightDecay == 0 {
		c.WeightDecay = 1e-4
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.Steps == 0 {
		c.Steps = 300
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	return c
}

// History records the loss trajectory of a run.
type History struct {
	Losses    []float64 // per-step minibatch loss
	FinalLoss float64
}

// SoftmaxCrossEntropy returns the mean cross-entropy loss of logits
// [N, C] against labels, and the gradient with respect to the logits.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	N, C := logits.Shape[0], logits.Shape[1]
	if len(labels) != N {
		panic(fmt.Sprintf("train: %d labels for batch of %d", len(labels), N))
	}
	probs := nn.Softmax(logits)
	grad := tensor.New(N, C)
	loss := 0.0
	invN := 1 / float64(N)
	for n := 0; n < N; n++ {
		p := probs.Data[n*C+labels[n]]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		for c := 0; c < C; c++ {
			g := probs.Data[n*C+c]
			if c == labels[n] {
				g -= 1
			}
			grad.Data[n*C+c] = g * invN
		}
	}
	return loss * invN, grad
}

// Backward pushes gradLogits back through the network DAG, accumulating
// parameter gradients, and returns the gradient at the input node.
func Backward(net *nn.Network, acts []*tensor.Tensor, gradLogits *tensor.Tensor) *tensor.Tensor {
	grads := make([]*tensor.Tensor, len(net.Nodes))
	grads[len(net.Nodes)-1] = gradLogits
	for id := len(net.Nodes) - 1; id >= 1; id-- {
		if grads[id] == nil {
			continue
		}
		nd := net.Nodes[id]
		ins := make([]*tensor.Tensor, len(nd.Inputs))
		for i, in := range nd.Inputs {
			ins[i] = acts[in]
		}
		gIns := nd.Layer.Backward(ins, acts[id], grads[id])
		for i, in := range nd.Inputs {
			if grads[in] == nil {
				grads[in] = gIns[i]
			} else {
				grads[in].Add(gIns[i])
			}
		}
		grads[id] = nil // free as we go
	}
	return grads[0]
}

// Run trains net on ds with SGD + momentum and cosine LR decay.
func Run(net *nn.Network, ds *dataset.Dataset, cfg Config) History {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed ^ 0x7261696e)
	params := net.Params()
	// First/second moment buffers: velocity doubles as Adam's m.
	velocity := make([]*tensor.Tensor, len(params))
	second := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		velocity[i] = tensor.New(p.Value.Shape...)
		second[i] = tensor.New(p.Value.Shape...)
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8

	var hist History
	labels := make([]int, cfg.BatchSize)
	batch := tensor.New(cfg.BatchSize, ds.C, ds.H, ds.W)
	stride := ds.C * ds.H * ds.W

	for step := 0; step < cfg.Steps; step++ {
		// Sample a minibatch with replacement.
		for b := 0; b < cfg.BatchSize; b++ {
			idx := r.Intn(ds.Len())
			labels[b] = ds.Labels[idx]
			copy(batch.Data[b*stride:(b+1)*stride], ds.Images.Data[idx*stride:(idx+1)*stride])
		}

		net.ZeroGrads()
		acts := net.ForwardAll(batch)
		loss, gradLogits := SoftmaxCrossEntropy(acts[len(acts)-1], labels)
		Backward(net, acts, gradLogits)
		hist.Losses = append(hist.Losses, loss)

		// Global gradient-norm clipping stabilizes the deepest nets.
		if cfg.ClipNorm > 0 {
			var norm2 float64
			for _, p := range params {
				for _, g := range p.Grad.Data {
					norm2 += g * g
				}
			}
			if norm := math.Sqrt(norm2); norm > cfg.ClipNorm {
				scale := cfg.ClipNorm / norm
				for _, p := range params {
					p.Grad.Scale(scale)
				}
			}
		}

		// Linear warmup over the first 10% of steps, then cosine decay
		// to 1% of the peak LR.
		frac := float64(step) / float64(cfg.Steps)
		var lr float64
		if frac < 0.1 {
			lr = cfg.LR * (0.1 + 0.9*frac/0.1)
		} else {
			d := (frac - 0.1) / 0.9
			lr = cfg.LR * (0.01 + 0.99*0.5*(1+math.Cos(math.Pi*d)))
		}

		switch cfg.Optimizer {
		case Adam:
			t := float64(step + 1)
			bc1 := 1 - math.Pow(beta1, t)
			bc2 := 1 - math.Pow(beta2, t)
			for i, p := range params {
				m, v := velocity[i], second[i]
				for j := range p.Value.Data {
					g := p.Grad.Data[j] + cfg.WeightDecay*p.Value.Data[j]
					m.Data[j] = beta1*m.Data[j] + (1-beta1)*g
					v.Data[j] = beta2*v.Data[j] + (1-beta2)*g*g
					mhat := m.Data[j] / bc1
					vhat := v.Data[j] / bc2
					p.Value.Data[j] -= lr * mhat / (math.Sqrt(vhat) + eps)
				}
			}
		case SGD:
			for i, p := range params {
				v := velocity[i]
				for j := range p.Value.Data {
					g := p.Grad.Data[j] + cfg.WeightDecay*p.Value.Data[j]
					v.Data[j] = cfg.Momentum*v.Data[j] - lr*g
					p.Value.Data[j] += v.Data[j]
				}
			}
		}

		if cfg.Verbose && (step%maxInt(1, cfg.Steps/10) == 0 || step == cfg.Steps-1) {
			fmt.Printf("train %s step %4d/%d loss %.4f lr %.4f\n", net.Name, step, cfg.Steps, loss, lr)
		}
	}
	if len(hist.Losses) > 0 {
		hist.FinalLoss = hist.Losses[len(hist.Losses)-1]
	}
	return hist
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
