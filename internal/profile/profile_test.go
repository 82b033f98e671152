package profile

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"mupod/internal/exec"
	"mupod/internal/fixedpoint"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/obs"
	"mupod/internal/rng"
	"mupod/internal/tensor"
	"mupod/internal/testnet"
)

func testConfig() Config {
	return Config{Images: 16, Points: 8, Seed: 5}
}

func TestRunProducesProfileForEveryAnalyzableLayer(t *testing.T) {
	net, _, te := testnet.Trained()
	p, err := Run(net, te, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumLayers() != len(net.AnalyzableNodes()) {
		t.Fatalf("%d profiles for %d layers", p.NumLayers(), len(net.AnalyzableNodes()))
	}
	for _, lp := range p.Layers {
		if lp.Lambda <= 0 {
			t.Errorf("%s: λ = %v", lp.Name, lp.Lambda)
		}
		if lp.R2 < 0.8 {
			t.Errorf("%s: R² = %v — linearity of Eq. 5 violated", lp.Name, lp.R2)
		}
		if lp.MaxAbs <= 0 || lp.Inputs <= 0 || lp.MACs <= 0 {
			t.Errorf("%s: bad metadata %+v", lp.Name, lp)
		}
		if len(lp.Deltas) != 8 || len(lp.Sigmas) != 8 {
			t.Errorf("%s: %d/%d measurement points", lp.Name, len(lp.Deltas), len(lp.Sigmas))
		}
		if lp.IntBits != fixedpoint.IntBitsForRange(lp.MaxAbs) {
			t.Errorf("%s: IntBits inconsistent", lp.Name)
		}
	}
}

func TestSigmasIncreaseWithDelta(t *testing.T) {
	net, _, te := testnet.Trained()
	p, err := Run(net, te, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range p.Layers {
		// Deltas are sorted ascending by construction; σ must broadly
		// follow (allow one local inversion from measurement noise).
		inversions := 0
		for i := 1; i < len(lp.Sigmas); i++ {
			if lp.Sigmas[i] < lp.Sigmas[i-1] {
				inversions++
			}
		}
		if inversions > 2 {
			t.Errorf("%s: %d σ inversions across the Δ sweep", lp.Name, inversions)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	net, _, te := testnet.Trained()
	a, err := Run(net, te, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, te, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Layers {
		if a.Layers[i].Lambda != b.Layers[i].Lambda || a.Layers[i].Theta != b.Layers[i].Theta {
			t.Fatal("profiling is not deterministic")
		}
	}
}

func TestRunErrorsOnTooFewImages(t *testing.T) {
	net, _, te := testnet.Trained()
	_, err := Run(net, te, Config{Images: te.Len() + 1})
	if err == nil || !strings.Contains(err.Error(), "images") {
		t.Fatalf("err = %v", err)
	}
}

func TestDeltaForAndFormatFor(t *testing.T) {
	lp := LayerProfile{Lambda: 2, Theta: 0.01, IntBits: 3}
	d := lp.DeltaFor(0.5, 0.25) // 2·0.5·0.5 + 0.01
	if math.Abs(d-0.51) > 1e-12 {
		t.Fatalf("DeltaFor = %v", d)
	}
	f := lp.FormatFor(0.51)
	if f.IntBits != 3 {
		t.Fatalf("FormatFor kept IntBits %d", f.IntBits)
	}
	if f.Delta() > 0.51 {
		t.Fatalf("format Δ %v exceeds tolerance", f.Delta())
	}
}

func TestProfileLayerLookup(t *testing.T) {
	p := &Profile{Layers: []LayerProfile{{NodeID: 3, Name: "x"}}}
	if p.Layer(3) == nil || p.Layer(5) != nil {
		t.Fatal("Layer lookup broken")
	}
}

func TestUniformInjectorSkipsZeros(t *testing.T) {
	r := rng.New(1)
	x := tensor.FromSlice([]float64{0, 1, 0, -2}, 4)
	UniformInjector(r, 0.5, false)(x, x)
	if x.Data[0] != 0 || x.Data[2] != 0 {
		t.Fatal("zeros were perturbed")
	}
	if x.Data[1] == 1 && x.Data[3] == -2 {
		t.Fatal("non-zeros were not perturbed")
	}
	if math.Abs(x.Data[1]-1) > 0.5 || math.Abs(x.Data[3]+2) > 0.5 {
		t.Fatal("perturbation exceeded Δ")
	}
}

func TestUniformInjectorIncludeZeros(t *testing.T) {
	r := rng.New(2)
	x := tensor.New(64)
	UniformInjector(r, 0.5, true)(x, x)
	moved := 0
	for _, v := range x.Data {
		if v != 0 {
			moved++
		}
	}
	if moved < 60 {
		t.Fatalf("only %d/64 zeros perturbed with IncludeZeros", moved)
	}
}

func TestUniformInjectorZeroDelta(t *testing.T) {
	x := tensor.FromSlice([]float64{1, 2}, 2)
	UniformInjector(rng.New(3), 0, true)(x, x)
	if x.Data[0] != 1 || x.Data[1] != 2 {
		t.Fatal("Δ=0 injector changed values")
	}
}

func TestQuantizeInjector(t *testing.T) {
	f := fixedpoint.Format{IntBits: 4, FracBits: 1} // step 0.5
	x := tensor.FromSlice([]float64{0.3, 1.26}, 2)
	QuantizeInjector(f)(x, x)
	if x.Data[0] != 0.5 || x.Data[1] != 1.5 {
		t.Fatalf("quantized = %v", x.Data)
	}
}

func TestProfileFailsOnDegenerateLayer(t *testing.T) {
	// A network whose analyzable layer sees an all-zero input (conv1 has
	// zero weights, so conv2's input is identically zero) must be
	// reported as an error, not silently fitted.
	_, _, te := testnet.Trained()
	net := nn.NewNetwork("deg", []int{3, 8, 8}, 2)
	c1 := nn.NewConv2D(3, 2, 1, 1, 0) // weights left at zero
	x := net.AddNode("conv1", c1, 0)
	c2 := nn.NewConv2D(2, 2, 1, 1, 0)
	x = net.AddNode("conv2", c2, x)
	net.AddNode("gap", nn.GlobalAvgPool{}, x)

	_, err := Run(net, te, Config{Images: 4, Points: 4})
	if err == nil {
		t.Fatal("no error on degenerate layer")
	}
}

// TestEq6VarianceAdditivity validates the independence assumption of
// Eq. 6: when every layer is injected simultaneously (equal Δ shares),
// the variance of the combined output error must be approximately the
// sum of the variances each layer induces alone.
func TestEq6VarianceAdditivity(t *testing.T) {
	net, _, te := testnet.Trained()
	batch := te.Batch(0, 24)
	acts := net.ForwardAll(batch)
	exact := acts[len(acts)-1]
	sess := exec.NewSession(exec.NewPlan(net))

	nodes := net.AnalyzableNodes()
	deltas := map[int]float64{}
	var sumVar float64
	const reps = 6
	diff := make([]float64, exact.Len())
	for _, id := range nodes {
		input := acts[net.Nodes[id].Inputs[0]]
		delta := input.MaxAbs() / 64
		deltas[id] = delta
		// Pool repeats for a stable per-layer variance.
		var pooled []float64
		base := rng.New(uint64(id) * 7919)
		for rep := 0; rep < reps; rep++ {
			out := sess.Replay(acts, id, nil, UniformInjector(base.Split(), delta, false))
			for i := range diff {
				pooled = append(pooled, out.Data[i]-exact.Data[i])
			}
		}
		var m, m2 float64
		for i, v := range pooled {
			d := v - m
			m += d / float64(i+1)
			m2 += d * (v - m)
		}
		sumVar += m2 / float64(len(pooled))
	}

	// Combined injection at every layer simultaneously.
	var combined []float64
	base := rng.New(99991)
	for rep := 0; rep < reps; rep++ {
		plan := map[int]nn.Injector{}
		for _, id := range nodes {
			plan[id] = UniformInjector(base.Split(), deltas[id], false)
		}
		out := sess.Forward(batch, plan)
		for i := range exact.Data {
			combined = append(combined, out.Data[i]-exact.Data[i])
		}
	}
	var m, m2 float64
	for i, v := range combined {
		d := v - m
		m += d / float64(i+1)
		m2 += d * (v - m)
	}
	combVar := m2 / float64(len(combined))

	ratio := combVar / sumVar
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("Eq. 6 additivity violated: combined var %.4g vs Σ individual %.4g (ratio %.2f)",
			combVar, sumVar, ratio)
	}
	t.Logf("Eq. 6: combined/Σ individual variance ratio = %.3f", ratio)
}

func TestRunContextCancelled(t *testing.T) {
	net, _, te := testnet.Trained()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, net, te, testConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// RunContext with a live context matches Run exactly.
	a, err := RunContext(context.Background(), net, te, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, te, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Layers {
		if a.Layers[k].Lambda != b.Layers[k].Lambda || a.Layers[k].Theta != b.Layers[k].Theta {
			t.Fatalf("layer %d: RunContext diverged from Run", k)
		}
	}
}

func TestConfigNormalizedIdempotent(t *testing.T) {
	n := Config{}.Normalized()
	if n.Images == 0 || n.Points == 0 || n.TargetSamples == 0 {
		t.Fatalf("defaults not filled: %+v", n)
	}
	if n != n.Normalized() {
		t.Fatal("Normalized is not idempotent")
	}
}

// TestSweepGEMMSpansNestUnderTheirItem: a sweep worker reuses one
// session across items, and every kernels.gemm span a replay records
// must hang off that replay's own exec.item span and lie inside its
// interval, not off the first item the session ran.
func TestSweepGEMMSpansNestUnderTheirItem(t *testing.T) {
	r := rng.New(3)
	net := nn.NewNetwork("wide", []int{64, 16, 16}, 4)
	conv := nn.NewConv2D(64, 64, 3, 1, 1) // 64×256×576 MACs per image, above the span gate
	conv.InitHe(r, 1)
	id := net.AddNode("conv", conv, 0)
	id = net.AddNode("gap", nn.GlobalAvgPool{}, id)
	fc := nn.NewDense(64, 4)
	fc.InitHe(r, 1)
	net.AddNode("fc", fc, id)
	x := tensor.New(2, 64, 16, 16)
	for i := range x.Data {
		x.Data[i] = r.Uniform(-1, 1)
	}
	acts := net.ForwardAll(x)
	target := Config{Points: 3}.withDefaults().Target(1, acts[0].MaxAbs(), 3, 1,
		func(_ int, r *rng.RNG, delta float64) (nn.Layer, nn.Injector) {
			return nil, UniformInjector(r, delta, false)
		})

	tr := obs.NewTracer(0)
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := Sweep(ctx, exec.NewPool(net, 1, kernels.Policy{}), acts, []Target{target}); err != nil {
		t.Fatal(err)
	}
	items := map[int64]*obs.Span{}
	var gemms []*obs.Span
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "exec.item":
			items[sp.ID] = sp
		case "kernels.gemm":
			gemms = append(gemms, sp)
		}
	}
	if len(items) != 9 || len(gemms) != 2*len(items) { // one conv GEMM per image per replay
		t.Fatalf("%d kernels.gemm spans for %d exec.item spans, want 18 for 9", len(gemms), len(items))
	}
	perItem := map[int64]int{}
	for _, g := range gemms {
		it := items[g.ParentID]
		if it == nil {
			t.Fatalf("kernels.gemm span's parent %d is not an exec.item span", g.ParentID)
		}
		if g.Start.Before(it.Start) || g.Start.Add(g.Dur).After(it.Start.Add(it.Dur)) {
			t.Fatalf("kernels.gemm span [%v, +%v] lies outside its exec.item span [%v, +%v]", g.Start, g.Dur, it.Start, it.Dur)
		}
		perItem[g.ParentID]++
	}
	for id, n := range perItem {
		if n != 2 {
			t.Fatalf("exec.item span %d parents %d kernels.gemm spans, want 2", id, n)
		}
	}
}
