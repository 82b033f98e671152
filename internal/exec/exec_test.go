package exec_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mupod/internal/exec"
	"mupod/internal/nn"
	"mupod/internal/profile"
	"mupod/internal/rng"
	"mupod/internal/tensor"
	"mupod/internal/testnet"
)

// branchy builds a small DAG with a residual branch and a concat so
// the downstream sets are non-trivial (not every successor is
// affected by every node).
func branchy() *nn.Network {
	net := nn.NewNetwork("branchy", []int{2, 8, 8}, 3)
	r := rng.New(7)
	c1 := nn.NewConv2D(2, 4, 3, 1, 1)
	c1.InitHe(r, 1)
	a := net.AddNode("conv1", c1, 0)
	a = net.AddNode("relu1", nn.ReLU{}, a)
	// Two independent branches off relu1.
	cb1 := nn.NewConv2D(4, 4, 3, 1, 1)
	cb1.InitHe(r, 1)
	b1 := net.AddNode("branch1", cb1, a)
	cb2 := nn.NewConv2D(4, 4, 3, 1, 1)
	cb2.InitHe(r, 1)
	b2 := net.AddNode("branch2", cb2, a)
	sum := net.AddNode("add", nn.Add{}, b1, b2)
	cat := net.AddNode("concat", nn.Concat{}, sum, a)
	g := net.AddNode("gap", nn.GlobalAvgPool{}, cat)
	fc := nn.NewDense(8, 3)
	fc.InitHe(r, 1)
	net.AddNode("fc", fc, g)
	return net
}

func TestPlanDownstreamMatchesBruteForce(t *testing.T) {
	net := branchy()
	p := exec.NewPlan(net)
	for start := 1; start < len(net.Nodes); start++ {
		// Brute force: the dirty-scan loop nn.ReplayFrom runs.
		dirty := make([]bool, len(net.Nodes))
		dirty[start] = true
		var want []int
		for id := start + 1; id < len(net.Nodes); id++ {
			for _, in := range net.Nodes[id].Inputs {
				if dirty[in] {
					dirty[id] = true
					want = append(want, id)
					break
				}
			}
		}
		got := p.Downstream(start)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("node %d: downstream %v, want %v", start, got, want)
		}
	}
	// branch1's perturbation must skip branch2 but hit add/concat/gap/fc.
	b1 := net.NodeByName("branch1").ID
	b2 := net.NodeByName("branch2").ID
	for _, id := range p.Downstream(b1) {
		if id == b2 {
			t.Fatal("independent branch marked downstream")
		}
	}
}

func TestPlanOutSize(t *testing.T) {
	net := branchy()
	p := exec.NewPlan(net)
	x := tensor.New(2, 2, 8, 8)
	acts := net.ForwardAll(x)
	for id, a := range acts {
		if a.Len() != 2*p.OutSize(id) {
			t.Errorf("node %d: OutSize %d, activation %d elems for batch 2", id, p.OutSize(id), a.Len())
		}
	}
}

// replayFixture is one network and batch the replay tests table.
type replayFixture struct {
	net *nn.Network
	x   *tensor.Tensor
}

// replayFixtures returns the branchy DAG and the shared trained
// fixture, each with an input batch.
func replayFixtures() map[string]replayFixture {
	bx := tensor.New(3, 2, 8, 8)
	r := rng.New(11)
	for i := range bx.Data {
		bx.Data[i] = r.Uniform(-1, 1)
	}
	tn, _, te := testnet.Trained()
	return map[string]replayFixture{
		"branchy": {branchy(), bx},
		"testnet": {tn, te.Batch(0, 6)},
	}
}

// TestSessionReplayMatchesLegacy verifies the arena-based replay is
// bit-identical to nn.ReplayFrom for every analyzable node, on both
// the branchy DAG and the shared trained fixture.
func TestSessionReplayMatchesLegacy(t *testing.T) {
	for name, tc := range replayFixtures() {
		t.Run(name, func(t *testing.T) {
			acts := tc.net.ForwardAll(tc.x)
			sess := exec.NewSession(exec.NewPlan(tc.net))
			for _, id := range tc.net.AnalyzableNodes() {
				for trial := 0; trial < 3; trial++ {
					seed := uint64(id*100 + trial)
					inj := func(seed uint64) nn.Injector {
						return profile.UniformInjector(rng.New(seed), 0.05, false)
					}
					want := tc.net.ReplayFrom(acts, id, inj(seed))
					got := sess.Replay(acts, id, inj(seed))
					if len(got.Data) != len(want.Data) {
						t.Fatalf("node %d: length %d vs %d", id, len(got.Data), len(want.Data))
					}
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("node %d trial %d: logit[%d] = %v, legacy %v", id, trial, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
			// The cached activations must be untouched by replays.
			fresh := tc.net.ForwardAll(tc.x)
			for id := range acts {
				for i := range acts[id].Data {
					if acts[id].Data[i] != fresh[id].Data[i] {
						t.Fatalf("replay corrupted cached activation of node %d", id)
					}
				}
			}
		})
	}
}

// TestSessionReplayLayerMatchesOverwrittenNet verifies the layer
// override: replaying node K with a shallow copy of its layer holding
// perturbed weights (with and without input noise) is bit-identical to
// nn.ReplayFrom on the network whose weights were overwritten in place,
// and leaves the shared network's weights untouched.
func TestSessionReplayLayerMatchesOverwrittenNet(t *testing.T) {
	for name, tc := range replayFixtures() {
		t.Run(name, func(t *testing.T) {
			acts := tc.net.ForwardAll(tc.x)
			sess := exec.NewSession(exec.NewPlan(tc.net))
			for _, id := range tc.net.AnalyzableNodes() {
				w, with := overridable(t, tc.net.Nodes[id].Layer)
				saved := append([]float64(nil), w.Data...)
				perturbed := tensor.New(w.Shape...)
				r := rng.New(uint64(id))
				for i, v := range saved {
					perturbed.Data[i] = v + r.Uniform(-0.05, 0.05)
				}
				for trial, inj := range []func() nn.Injector{
					func() nn.Injector { return nil },
					func() nn.Injector { return profile.UniformInjector(rng.New(uint64(id)), 0.05, false) },
				} {
					got := append([]float64(nil), sess.ReplayLayer(acts, id, with(perturbed), inj()).Data...)
					for i := range saved {
						if w.Data[i] != saved[i] {
							t.Fatalf("node %d: ReplayLayer wrote the shared weights", id)
						}
					}
					legacy := inj()
					if legacy == nil {
						legacy = func(*tensor.Tensor) {}
					}
					copy(w.Data, perturbed.Data)
					want := tc.net.ReplayFrom(acts, id, legacy)
					copy(w.Data, saved)
					for i := range want.Data {
						if got[i] != want.Data[i] {
							t.Fatalf("node %d trial %d: logit[%d] = %v, overwritten net %v", id, trial, i, got[i], want.Data[i])
						}
					}
				}
			}
		})
	}
}

// overridable returns a dot-product layer's weights and a constructor
// of its shallow copy holding other weights.
func overridable(t *testing.T, l nn.Layer) (*tensor.Tensor, func(*tensor.Tensor) nn.Layer) {
	switch c := l.(type) {
	case *nn.Conv2D:
		return c.W, func(w *tensor.Tensor) nn.Layer { cp := *c; cp.W = w; return &cp }
	case *nn.DepthwiseConv2D:
		return c.W, func(w *tensor.Tensor) nn.Layer { cp := *c; cp.W = w; return &cp }
	case *nn.Dense:
		return c.W, func(w *tensor.Tensor) nn.Layer { cp := *c; cp.W = w; return &cp }
	}
	t.Fatalf("no weights on %s layer", l.Kind())
	return nil, nil
}

// TestSessionForwardInjectMatchesLegacy verifies the arena forward
// pass (with and without injection) is bit-identical to the Network
// methods, including after a batch-size change.
func TestSessionForwardInjectMatchesLegacy(t *testing.T) {
	net, _, te := testnet.Trained()
	sess := exec.NewSession(exec.NewPlan(net))
	for _, bs := range []int{8, 8, 3} { // repeat + shrink exercises arena reuse/resize
		x := te.Batch(0, bs)
		want := net.Forward(x)
		got := sess.Forward(x)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("batch %d: plain forward diverges at %d", bs, i)
			}
		}
		plan := map[int]nn.Injector{}
		for _, id := range net.AnalyzableNodes() {
			plan[id] = profile.UniformInjector(rng.New(uint64(id)), 0.02, false)
		}
		plan2 := map[int]nn.Injector{}
		for _, id := range net.AnalyzableNodes() {
			plan2[id] = profile.UniformInjector(rng.New(uint64(id)), 0.02, false)
		}
		want = net.ForwardInject(x, plan)
		got = sess.ForwardInject(x, plan2)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("batch %d: injected forward diverges at %d", bs, i)
			}
		}
	}
}

// TestConcurrentSessionsShareOnePlan is the race-detector coverage:
// many sessions replay and forward concurrently against one Plan and
// one Network, asserting bit-identical results per goroutine.
func TestConcurrentSessionsShareOnePlan(t *testing.T) {
	net, _, te := testnet.Trained()
	p := exec.NewPlan(net)
	x := te.Batch(0, 4)
	acts := net.ForwardAll(x)
	ids := net.AnalyzableNodes()

	// Reference outputs, computed sequentially.
	ref := make(map[int][]float64, len(ids))
	for _, id := range ids {
		out := net.ReplayFrom(acts, id, profile.UniformInjector(rng.New(uint64(id)), 0.03, false))
		ref[id] = append([]float64(nil), out.Data...)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := exec.NewSession(p)
			for rep := 0; rep < 5; rep++ {
				id := ids[(g+rep)%len(ids)]
				out := sess.Replay(acts, id, profile.UniformInjector(rng.New(uint64(id)), 0.03, false))
				for i, v := range ref[id] {
					if out.Data[i] != v {
						errc <- fmt.Errorf("goroutine %d: node %d diverged under concurrency", g, id)
						return
					}
				}
				sess.Forward(x)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestEvaluatorDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 97
	run := func(workers int) []float64 {
		// Pre-split one RNG per item, as real callers do.
		base := rng.New(42)
		rngs := make([]*rng.RNG, n)
		for i := range rngs {
			rngs[i] = base.Split()
		}
		out := make([]float64, n)
		err := exec.NewEvaluator(workers).Map(context.Background(), n, func(_ context.Context, _, i int) error {
			out[i] = rngs[i].Uniform(-1, 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, 3, 8} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d differs", w, i)
			}
		}
	}
}

func TestEvaluatorWorkerIndexBounded(t *testing.T) {
	e := exec.NewEvaluator(3)
	var mu sync.Mutex
	seen := map[int]bool{}
	err := e.Map(context.Background(), 50, func(_ context.Context, w, _ int) error {
		mu.Lock()
		seen[w] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := range seen {
		if w < 0 || w >= 3 {
			t.Fatalf("worker index %d out of [0,3)", w)
		}
	}
}

func TestEvaluatorReportsLowestIndexError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := exec.NewEvaluator(workers).Map(context.Background(), 20, func(_ context.Context, _, i int) error {
			if i == 7 {
				return fmt.Errorf("item %d: %w", i, boom)
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

func TestEvaluatorHonorsCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := exec.NewEvaluator(workers).Map(ctx, 100, func(ctx context.Context, _, _ int) error {
			return ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestEvaluatorDefaultsToGOMAXPROCS(t *testing.T) {
	if exec.NewEvaluator(0).Workers() < 1 {
		t.Fatal("default worker count < 1")
	}
	if exec.NewEvaluator(-3).Workers() < 1 {
		t.Fatal("negative worker count not clamped")
	}
}
