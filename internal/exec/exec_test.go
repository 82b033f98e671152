package exec_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"mupod/internal/exec"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/obs"
	"mupod/internal/profile"
	"mupod/internal/refcheck"
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
		// Brute force: scan every later node for a dirty input.
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

// sameBits fails the test at the first element where got and want
// differ bitwise.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: logit[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestSessionReplayMatchesForward verifies that a replay injected at
// each analyzable node is bit-identical to the full forward pass with
// the same one-node injection and noise seed, on both the branchy DAG
// and the shared trained fixture.
func TestSessionReplayMatchesForward(t *testing.T) {
	for name, tc := range replayFixtures() {
		t.Run(name, func(t *testing.T) {
			acts := tc.net.ForwardAll(tc.x)
			sess := exec.NewSession(exec.NewPlan(tc.net))
			for _, id := range tc.net.AnalyzableNodes() {
				for trial := 0; trial < 3; trial++ {
					seed := uint64(id*100 + trial)
					inj := func() nn.Injector { return profile.UniformInjector(rng.New(seed), 0.05, false) }
					want := sess.Forward(tc.x, map[int]nn.Injector{id: inj()}).Clone()
					got := sess.Replay(acts, id, nil, inj())
					sameBits(t, fmt.Sprintf("node %d trial %d", id, trial), got.Data, want.Data)
				}
			}
		})
	}
}

// TestSessionReplayFixedPerturbationMatchesForward: a deterministic,
// position-keyed perturbation replayed from each analyzable node is
// bit-identical to the full forward pass with the same perturbation at
// the same node.
func TestSessionReplayFixedPerturbationMatchesForward(t *testing.T) {
	bump := func(dst, src *tensor.Tensor) {
		for i, v := range src.Data {
			dst.Data[i] = v + 0.01*float64(i%3)
		}
	}
	for name, tc := range replayFixtures() {
		t.Run(name, func(t *testing.T) {
			acts := tc.net.ForwardAll(tc.x)
			sess := exec.NewSession(exec.NewPlan(tc.net))
			for _, id := range tc.net.AnalyzableNodes() {
				want := sess.Forward(tc.x, map[int]nn.Injector{id: bump}).Clone()
				if diff, _ := refcheck.CompareTensors(want, acts[len(acts)-1]); diff == 0 {
					t.Fatalf("node %d: the bump left the logits unchanged", id)
				}
				sameBits(t, fmt.Sprintf("node %d", id), sess.Replay(acts, id, nil, bump).Data, want.Data)
			}
		})
	}
}

// TestSessionReplayNoopInjection: replaying from any analyzable node
// with nothing perturbed (a nil injector or one that copies its input)
// returns the exact logits.
func TestSessionReplayNoopInjection(t *testing.T) {
	for name, tc := range replayFixtures() {
		t.Run(name, func(t *testing.T) {
			acts := tc.net.ForwardAll(tc.x)
			exact := acts[len(acts)-1].Data
			sess := exec.NewSession(exec.NewPlan(tc.net))
			for _, id := range tc.net.AnalyzableNodes() {
				sameBits(t, fmt.Sprintf("node %d nil", id), sess.Replay(acts, id, nil, nil).Data, exact)
				noop := func(dst, src *tensor.Tensor) { copy(dst.Data, src.Data) }
				sameBits(t, fmt.Sprintf("node %d no-op", id), sess.Replay(acts, id, nil, noop).Data, exact)
			}
		})
	}
}

// TestSessionReplayDoesNotMutateCache: replays whose injectors write
// every element of their dst never write the cached activations they
// read.
func TestSessionReplayDoesNotMutateCache(t *testing.T) {
	for name, tc := range replayFixtures() {
		t.Run(name, func(t *testing.T) {
			acts := tc.net.ForwardAll(tc.x)
			snapshot := make([]*tensor.Tensor, len(acts))
			for i, a := range acts {
				snapshot[i] = a.Clone()
			}
			sess := exec.NewSession(exec.NewPlan(tc.net))
			for _, id := range tc.net.AnalyzableNodes() {
				sess.Replay(acts, id, nil, func(dst, _ *tensor.Tensor) { dst.Fill(99) })
				sess.Replay(acts, id, nil, profile.UniformInjector(rng.New(uint64(id)), 0.05, false))
			}
			for id := range acts {
				sameBits(t, fmt.Sprintf("cached activation of node %d", id), acts[id].Data, snapshot[id].Data)
			}
		})
	}
}

// TestSessionReplayOverrideMatchesOverwrittenNet verifies the layer
// override: replaying node K with a shallow copy of its layer holding
// perturbed weights (with and without input noise) is bit-identical to
// the forward pass of the network whose weights were overwritten in
// place, and leaves the shared network's weights untouched. The
// reference runs on a Plan built after the write, since a Plan packs
// the conv weights it was built on (see exec.Plan).
func TestSessionReplayOverrideMatchesOverwrittenNet(t *testing.T) {
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
					got := sess.Replay(acts, id, with(perturbed), inj()).Clone()
					for i := range saved {
						if w.Data[i] != saved[i] {
							t.Fatalf("node %d: Replay wrote the shared weights", id)
						}
					}
					var plan map[int]nn.Injector
					if fn := inj(); fn != nil {
						plan = map[int]nn.Injector{id: fn}
					}
					copy(w.Data, perturbed.Data)
					want := exec.NewSession(exec.NewPlan(tc.net)).Forward(tc.x, plan)
					copy(w.Data, saved)
					sameBits(t, fmt.Sprintf("node %d trial %d", id, trial), got.Data, want.Data)
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

// TestSessionForwardMatchesForwardAll verifies the exact arena forward
// pass is bit-identical to the logits of the allocating
// nn.Network.ForwardAll, including after a batch-size change.
func TestSessionForwardMatchesForwardAll(t *testing.T) {
	net, _, te := testnet.Trained()
	sess := exec.NewSession(exec.NewPlan(net))
	for _, bs := range []int{8, 8, 3} { // repeat + shrink exercises arena reuse/resize
		x := te.Batch(0, bs)
		acts := net.ForwardAll(x)
		sameBits(t, fmt.Sprintf("batch %d", bs), sess.Forward(x, nil).Data, acts[len(acts)-1].Data)
	}
}

// TestSessionRaggedBatchesReuseArenas runs batches of 32, 32, 4, 32
// and 4 images through one Session, as an evaluation with a ragged
// last batch does: exact and injected Forward, and Replay from every
// analyzable node. Buffers are kept by capacity, so nothing is
// allocated after the first pass, and every result equals a fresh
// Session's bit for bit, shaped for its own batch.
func TestSessionRaggedBatchesReuseArenas(t *testing.T) {
	sizes := []int{32, 32, 4, 32, 4}
	tn, _, _ := testnet.Trained()
	for name, net := range map[string]*nn.Network{"branchy": branchy(), "testnet": tn} {
		plan := exec.NewPlan(net)
		xs := make([]*tensor.Tensor, len(sizes))
		acts := make([][]*tensor.Tensor, len(sizes))
		r := rng.New(5)
		for b, n := range sizes {
			xs[b] = tensor.New(append([]int{n}, net.InputShape...)...)
			for i := range xs[b].Data {
				xs[b].Data[i] = r.Uniform(-1, 1)
			}
			acts[b] = net.ForwardAll(xs[b])
		}
		noise := func(b, id int) nn.Injector {
			return profile.UniformInjector(rng.New(uint64(b<<16|id)), 0.05, false)
		}
		type call func(*exec.Session) *tensor.Tensor
		// Each mode lists batch b's calls.
		modes := map[string]func(b int) []call{
			"exact forward": func(b int) []call {
				return []call{func(s *exec.Session) *tensor.Tensor { return s.Forward(xs[b], nil) }}
			},
			"injected forward": func(b int) []call {
				return []call{func(s *exec.Session) *tensor.Tensor {
					inj := map[int]nn.Injector{}
					for _, id := range net.AnalyzableNodes() {
						inj[id] = noise(b, id)
					}
					return s.Forward(xs[b], inj)
				}}
			},
			"replay": func(b int) []call {
				var calls []call
				for _, id := range net.AnalyzableNodes() {
					calls = append(calls, func(s *exec.Session) *tensor.Tensor { return s.Replay(acts[b], id, nil, noise(b, id)) })
				}
				return calls
			},
		}
		for mode, callsOf := range modes {
			t.Run(name+"/"+mode, func(t *testing.T) {
				exec.DisableMetrics()
				want := make([][]*tensor.Tensor, len(sizes))
				for b := range sizes {
					for _, c := range callsOf(b) {
						want[b] = append(want[b], c(exec.NewSession(plan)).Clone())
					}
				}
				m := exec.EnableMetrics(obs.NewRegistry())
				defer exec.DisableMetrics()
				sess := exec.NewSession(plan)
				var firstPass uint64
				for b, n := range sizes {
					for i, c := range callsOf(b) {
						got := c(sess)
						what := fmt.Sprintf("batch %d (%d images) call %d", b, n, i)
						if got.Shape[0] != n || got.Len() != n*net.NumClasses {
							t.Fatalf("%s: shape %v with %d values", what, got.Shape, got.Len())
						}
						sameBits(t, what, got.Data, want[b][i].Data)
					}
					if b == 0 {
						firstPass = m.ArenaAllocs.Value()
					}
				}
				if got := m.ArenaAllocs.Value(); got != firstPass {
					t.Fatalf("%d arena allocations after the first pass (%d in it)", got-firstPass, firstPass)
				}
				if m.ArenaReuses.Value() == 0 {
					t.Fatal("no arena reuses")
				}
			})
		}
	}
}

// TestSessionInjectIsolatesSharedTensors: branch1, branch2 and concat
// all read relu1's output; an injector at branch1 writes only the
// buffer branch1 reads, never the shared tensor it is handed as src.
// The independent reference applies the same plan, and the replay must
// agree with the forward pass bitwise.
func TestSessionInjectIsolatesSharedTensors(t *testing.T) {
	net := branchy()
	x := replayFixtures()["branchy"].x
	b1 := net.NodeByName("branch1").ID
	zero := func(dst, src *tensor.Tensor) {
		if &dst.Data[0] == &src.Data[0] {
			t.Error("the injector's dst is the shared input")
		}
		dst.Fill(0)
	}
	plan := map[int]nn.Injector{b1: zero}
	acts := net.ForwardAll(x)
	sess := exec.NewSession(exec.NewPlan(net))
	got := sess.Forward(x, plan).Clone()
	diff, err := refcheck.CompareTensors(got, refcheck.ForwardNetwork(net, x, plan))
	if err != nil {
		t.Fatal(err)
	}
	if diff > refcheck.ForwardTol {
		t.Fatalf("injected forward diverges from the reference by %g", diff)
	}
	if diff, _ := refcheck.CompareTensors(got, acts[len(acts)-1]); diff == 0 {
		t.Fatal("zeroing branch1's input left the logits unchanged")
	}
	sameBits(t, "replay vs forward", sess.Replay(acts, b1, nil, zero).Data, got.Data)
}

// TestSessionReplayPanicsOnBadNode: the input node and IDs past the
// output cannot be replayed.
func TestSessionReplayPanicsOnBadNode(t *testing.T) {
	net := branchy()
	acts := net.ForwardAll(replayFixtures()["branchy"].x)
	sess := exec.NewSession(exec.NewPlan(net))
	for _, id := range []int{0, len(net.Nodes), 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Replay(node %d) did not panic", id)
				}
			}()
			sess.Replay(acts, id, nil, func(dst, src *tensor.Tensor) { copy(dst.Data, src.Data) })
		}()
	}
}

// TestAccuracyCountsArgmaxHits checks the one accuracy function against
// a hand count over ForwardAll's logits, with a partial last batch, at
// several worker counts and both kernel policies.
func TestAccuracyCountsArgmaxHits(t *testing.T) {
	net, _, te := testnet.Trained()
	const n = 45
	acts := net.ForwardAll(te.Batch(0, n))
	hits := 0
	for i, p := range nn.Argmax(acts[len(acts)-1]) {
		if p == te.Labels[i] {
			hits++
		}
	}
	want := float64(hits) / n
	for _, workers := range []int{1, 3} {
		for _, pol := range []kernels.Policy{{}, {Impl: "parallel", IntraWorkers: 2}} {
			got, err := exec.Accuracy(context.Background(), workers, pol, net, te, n, 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("workers=%d %+v: accuracy %v, want %v", workers, pol, got, want)
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
	seq := exec.NewSession(p)
	for _, id := range ids {
		out := seq.Replay(acts, id, nil, profile.UniformInjector(rng.New(uint64(id)), 0.03, false))
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
				out := sess.Replay(acts, id, nil, profile.UniformInjector(rng.New(uint64(id)), 0.03, false))
				for i, v := range ref[id] {
					if out.Data[i] != v {
						errc <- fmt.Errorf("goroutine %d: node %d diverged under concurrency", g, id)
						return
					}
				}
				sess.Forward(x, nil)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestSessionsSharePlanPacksUnderParallelPolicy is the race-detector
// coverage of the Plan's packs: two Sessions on the parallel policy
// with 2 intra-op workers run exact and injected Forwards and Replays
// from every analyzable node at once, on one Plan. The 18×18 conv
// shards each image's two pixel chunks and the depthwise conv its
// plane groups across goroutines, all reading one pack. Every result
// equals a lone Session's bit for bit.
func TestSessionsSharePlanPacksUnderParallelPolicy(t *testing.T) {
	net := nn.NewNetwork("wide", []int{3, 18, 18}, 4)
	r := rng.New(9)
	c1 := nn.NewConv2D(3, 8, 3, 1, 1)
	c1.InitHe(r, 1)
	x := net.AddNode("conv1", c1, 0)
	x = net.AddNode("relu1", nn.ReLU{}, x)
	dw := nn.NewDepthwiseConv2D(8, 3, 1, 1)
	dw.InitHe(r, 1)
	x = net.AddNode("dwconv", dw, x)
	x = net.AddNode("relu2", nn.ReLU{}, x)
	x = net.AddNode("pool", nn.NewMaxPool2D(2, 2), x)
	c2 := nn.NewConv2D(8, 4, 3, 1, 1)
	c2.InitHe(r, 1)
	x = net.AddNode("conv2", c2, x)
	net.AddNode("gap", nn.GlobalAvgPool{}, x)

	in := tensor.New(4, 3, 18, 18)
	for i := range in.Data {
		in.Data[i] = r.Uniform(-1, 1)
	}
	acts := net.ForwardAll(in)
	pol := kernels.Policy{Impl: "parallel", IntraWorkers: 2}
	plan := exec.NewPlan(net)
	ids := net.AnalyzableNodes()
	noise := func(id int) nn.Injector { return profile.UniformInjector(rng.New(uint64(id)), 0.05, false) }
	run := func(s *exec.Session) [][]float64 {
		out := [][]float64{s.Forward(in, nil).Clone().Data}
		for _, id := range ids {
			out = append(out,
				s.Forward(in, map[int]nn.Injector{id: noise(id)}).Clone().Data,
				s.Replay(acts, id, nil, noise(id)).Clone().Data)
		}
		return out
	}
	want := run(exec.NewSessionPolicy(plan, pol))
	var wg sync.WaitGroup
	got := make([][][]float64, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := exec.NewSessionPolicy(plan, pol)
			for rep := 0; rep < 3; rep++ {
				got[g] = run(s)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i := range want {
			sameBits(t, fmt.Sprintf("session %d pass %d", g, i), got[g][i], want[i])
		}
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

// TestEvaluatorContainsWorkerPanics: a panic on one of Map's worker
// goroutines becomes that item's error, with the panic value and
// stack, instead of killing the process.
func TestEvaluatorContainsWorkerPanics(t *testing.T) {
	err := exec.NewEvaluator(2).Map(context.Background(), 8, func(_ context.Context, _, i int) error {
		if i == 5 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panicking item reported no error")
	}
	for _, want := range []string{"item 5 panicked", "kaboom", "goroutine"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %q, want it to contain %q", err, want)
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
