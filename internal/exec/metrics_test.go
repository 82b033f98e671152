package exec

import (
	"context"
	"testing"

	"mupod/internal/obs"
	"mupod/internal/tensor"
	"mupod/internal/testnet"
)

func TestSessionAndEvaluatorMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := EnableMetrics(reg)
	defer DisableMetrics()

	net, _, _ := testnet.Trained()
	plan := NewPlan(net)
	s := NewSession(plan)
	x := tensor.New(2, 3, 8, 8)
	s.Forward(x, nil)
	s.Forward(x, nil)

	if got := m.Forwards.Value(); got != 2 {
		t.Fatalf("forwards = %d, want 2", got)
	}
	if m.ArenaAllocs.Value() == 0 {
		t.Fatal("first pass must report arena allocations")
	}
	if m.ArenaReuses.Value() == 0 {
		t.Fatal("second pass must report arena reuses")
	}

	ev := NewEvaluator(3)
	if err := ev.Map(context.Background(), 10, func(ctx context.Context, worker, i int) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.EvalItems.Value(); got != 10 {
		t.Fatalf("evaluator items = %d, want 10", got)
	}
	if m.EvalBusy.Value() < 0 {
		t.Fatal("busy seconds must be non-negative")
	}
}

func TestEvaluatorItemSpans(t *testing.T) {
	DisableMetrics()
	tr := obs.NewTracer(0)
	ctx := obs.WithTracer(context.Background(), tr)
	ev := NewEvaluator(2)
	if err := ev.Map(ctx, 4, func(ctx context.Context, worker, i int) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	for _, s := range spans {
		if s.Name != "exec.item" {
			t.Errorf("span %q, want exec.item", s.Name)
		}
		if s.TID < 2 {
			t.Errorf("item span tid = %d, want worker lane >= 2", s.TID)
		}
	}
}

// BenchmarkObsDisabled pins the cost of the telemetry hooks on the
// Session replay path when telemetry is off: the nil-counter add and
// the once-per-pass stats flush must each stay around 2 ns/op (sub-ns
// for the counter), negligible next to one replay (perfbench reports
// its cost as profile.us_per_replay). With metrics
// detached obs.Start is never reached (Map resolves its telemetry
// state once and takes a direct-call branch per item); the last
// sub-benchmark smoke-tests that whole disabled Map round trip.
func BenchmarkObsDisabled(b *testing.B) {
	DisableMetrics()
	b.Run("counter-add", func(b *testing.B) {
		var c *obs.Counter
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("session-flush", func(b *testing.B) {
		s := &Session{}
		for i := 0; i < b.N; i++ {
			s.flushStats()
		}
	})
	// Disabled evaluator items take the direct-call branch in Map; the
	// guard is one boolean test, measured here via the full Map loop.
	b.Run("evaluator-item-guard", func(b *testing.B) {
		ctx := context.Background()
		ev := NewEvaluator(1)
		fn := func(ctx context.Context, worker, i int) error { return nil }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ev.Map(ctx, 1, fn)
		}
	})
}
