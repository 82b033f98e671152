package weights

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/fixedpoint"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/profile"
	"mupod/internal/search"
	"mupod/internal/tensor"
	"mupod/internal/testnet"
)

var (
	fixOnce sync.Once
	actProf *profile.Profile
	wProf   *Profile
)

func fixtures(t *testing.T) (*profile.Profile, *Profile) {
	t.Helper()
	fixOnce.Do(func() {
		net, _, te := testnet.Trained()
		cfg := Config{Images: 16, Points: 8, Seed: 5}
		if p, err := profile.Run(net, te, cfg); err == nil {
			actProf = p
		}
		if p, err := Run(net, te, cfg); err == nil {
			wProf = p
		}
	})
	if actProf == nil || wProf == nil {
		t.Fatal("fixtures unavailable")
	}
	return actProf, wProf
}

func TestWeightProfileLinearity(t *testing.T) {
	_, wp := fixtures(t)
	if wp.NumLayers() != 4 {
		t.Fatalf("%d weight layers", wp.NumLayers())
	}
	for _, lp := range wp.Layers {
		if lp.Lambda <= 0 {
			t.Errorf("%s: λw = %v", lp.Name, lp.Lambda)
		}
		if lp.R2 < 0.8 {
			t.Errorf("%s: R² = %v — weight-noise propagation not linear", lp.Name, lp.R2)
		}
		if lp.Params <= 0 || lp.MACs <= 0 || lp.MaxAbs <= 0 {
			t.Errorf("%s: bad metadata %+v", lp.Name, lp)
		}
	}
}

func TestWeightProfileRestoresWeights(t *testing.T) {
	net, _, te := testnet.Trained()
	before := accuracy(t, net, te, 100)
	if _, err := Run(net, te, Config{Images: 8, Points: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	after := accuracy(t, net, te, 100)
	if before != after {
		t.Fatalf("profiling changed the network: %v → %v", before, after)
	}
}

// TestRunContextSharesNetWithReaders pins that weight profiling only
// reads the network. zoo.Load hands every caller one process-wide net,
// so an accuracy evaluation running alongside the parallel sweep must
// see the unperturbed weights — and, under -race, no data race.
func TestRunContextSharesNetWithReaders(t *testing.T) {
	net, _, te := testnet.Trained()
	want := accuracy(t, net, te, 100)
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(context.Background(), net, te, Config{Images: 8, Points: 4, Seed: 1, Workers: 2})
		done <- err
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		if got := accuracy(t, net, te, 100); got != want {
			t.Fatalf("accuracy moved while the weights were profiled: %v → %v", want, got)
		}
	}
}

func TestJointAllocateStructure(t *testing.T) {
	ap, wp := fixtures(t)
	act, w, err := JointAllocate(ap, wp, 0.8, JointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(act.Layers) != ap.NumLayers() || len(w.Layers) != wp.NumLayers() {
		t.Fatalf("allocation sizes %d/%d", len(act.Layers), len(w.Layers))
	}
	// The 2Ł ξ shares must sum to 1.
	var sum float64
	for _, l := range act.Layers {
		sum += l.Xi
	}
	for _, l := range w.Layers {
		sum += l.Xi
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("Σξ over 2Ł sources = %v", sum)
	}
	for _, l := range w.Layers {
		if l.Bits < 0 || l.Format.Delta() > l.Delta {
			t.Fatalf("bad weight format: %+v", l)
		}
	}
	if w.StorageBits() <= 0 || w.EffectiveStorageBits() <= 0 {
		t.Fatal("storage accounting broken")
	}
}

func TestJointAllocateValidatesOnRealQuantization(t *testing.T) {
	net, _, te := testnet.Trained()
	ap, wp := fixtures(t)
	sr, err := search.Run(net, ap, te, search.Options{
		Scheme: search.Scheme1Uniform, RelDrop: 0.05, EvalImages: 120, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Joint split halves the budget per source; use a modest safety
	// factor as the guard loop would.
	act, w, err := JointAllocate(ap, wp, sr.SigmaYL*0.7, JointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	acc := Validate(net, te, 0, act, w)
	exact := accuracy(t, net, te, 0)
	if acc < exact*(1-0.05)-0.03 {
		t.Fatalf("joint quantization accuracy %v vs exact %v", acc, exact)
	}
	// Validate must restore the weights.
	if again := accuracy(t, net, te, 0); again != exact {
		t.Fatal("Validate leaked quantized weights")
	}
}

func TestJointBeatsUniformWeightStorage(t *testing.T) {
	// With storage as the weight objective, the joint allocation's
	// weight footprint should not exceed a uniform assignment at the
	// max per-layer width it chose.
	ap, wp := fixtures(t)
	_, w, err := JointAllocate(ap, wp, 0.8, JointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	maxBits := 0
	for _, l := range w.Layers {
		if l.Bits > maxBits {
			maxBits = l.Bits
		}
	}
	var uniform int64
	for _, l := range w.Layers {
		uniform += int64(l.Params) * int64(maxBits)
	}
	if w.StorageBits() > uniform {
		t.Fatalf("joint storage %d > uniform-at-max %d", w.StorageBits(), uniform)
	}
}

func TestApplyRestore(t *testing.T) {
	net, _, te := testnet.Trained()
	ap, wp := fixtures(t)
	_, w, err := JointAllocate(ap, wp, 0.5, JointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before := accuracy(t, net, te, 100)
	restore := w.Apply(net)
	restore()
	after := accuracy(t, net, te, 100)
	if before != after {
		t.Fatal("Apply/restore not idempotent")
	}
}

// TestPlanAfterApplyMatchesQuantizedForwardAll: an exec.Plan packs the
// conv and depthwise conv weights it is built on, so a Plan built after
// Apply runs the quantized net. Its exact Forward must give the logits
// of nn.ForwardAll on the quantized net bit for bit, on every testnet
// zoo fixture (plain convs, a depthwise-separable stack, residual and
// inception blocks), and a Plan built after restore the original
// net's.
func TestPlanAfterApplyMatchesQuantizedForwardAll(t *testing.T) {
	forward := func(net *nn.Network, x *tensor.Tensor) []float64 {
		return exec.NewSession(exec.NewPlan(net)).Forward(x, nil).Data
	}
	for _, f := range testnet.Zoo() {
		net, x := f.Net, f.Test.Batch(0, 8)
		a := &Allocation{}
		for _, id := range net.AnalyzableNodes() {
			w, _ := weightTensor(net.Nodes[id].Layer)
			fm := fixedpoint.Format{IntBits: fixedpoint.IntBitsForRange(w.MaxAbs()), FracBits: 3}
			a.Layers = append(a.Layers, LayerWeightAlloc{NodeID: id, Format: fm})
		}
		exact := net.ForwardAll(x)
		restore := a.Apply(net)
		acts := net.ForwardAll(x)
		got := forward(net, x)
		restore()
		quantized := acts[len(acts)-1].Data
		sameBits(t, f.Name+" quantized", got, quantized)
		if slices.Equal(quantized, exact[len(exact)-1].Data) {
			t.Fatalf("%s: quantizing the weights left the logits unchanged", f.Name)
		}
		sameBits(t, f.Name+" restored", forward(net, x), exact[len(exact)-1].Data)
	}
}

// sameBits fails t unless got and want have the same bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%s: logits %v, want %v", what, got, want)
	}
}

func TestJointAllocateValidation(t *testing.T) {
	ap, wp := fixtures(t)
	bad := &Profile{Layers: wp.Layers[:1]}
	if _, _, err := JointAllocate(ap, bad, 0.5, JointConfig{}); err == nil {
		t.Fatal("no error on layer-count mismatch")
	}
	if _, _, err := JointAllocate(ap, wp, 0.5, JointConfig{ActRho: []float64{1}}); err == nil {
		t.Fatal("no error on ρ length mismatch")
	}
}

// The joint problem's sources carry their names, so a solver error
// names the offending source and gives its index among the 2Ł.
func TestJointAllocateErrorNamesSource(t *testing.T) {
	ap, wp := fixtures(t)
	L := wp.NumLayers()
	rho := make([]float64, L)
	rho[1] = -1
	_, _, err := JointAllocate(ap, wp, 0.5, JointConfig{WeightRho: rho})
	want := fmt.Sprintf("source %d (%s)", L+1, wp.Layers[1].Name)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to name %q", err, want)
	}
}

func TestRunErrorsOnTooFewImages(t *testing.T) {
	net, _, te := testnet.Trained()
	if _, err := Run(net, te, Config{Images: te.Len() + 1}); err == nil {
		t.Fatal("no error on oversized image budget")
	}
}

// accuracy is exact exec.Accuracy on one worker, failing t on error.
func accuracy(t *testing.T, net *nn.Network, ds *dataset.Dataset, n int) float64 {
	t.Helper()
	acc, err := exec.Accuracy(context.Background(), 1, kernels.Policy{}, net, ds, n, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}
