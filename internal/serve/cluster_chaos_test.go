package serve

import (
	"context"
	"testing"
	"time"

	"mupod/internal/dataset"
	"mupod/internal/nn"
)

// The headline robustness guarantee, end to end: a 3-node cluster loses
// a member mid-run and no acknowledged job is lost. Node a admits jobs
// and dies (Crash = kill -9: no drain, no tombstones); the survivors'
// failure detectors declare it dead, each re-admits the ownership
// records it holds for a through the ordinary admission gate, and every
// job finishes — with results bit-identical to a single-node run of the
// same corpus, because handoff changes where a job runs, never what it
// computes.
func TestClusterChaosNodeDeathLosesNoJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos test")
	}
	// a's resolver is slow so its queue is still full of acknowledged,
	// unfinished jobs at the moment it dies.
	slow := func(ctx context.Context, req *JobRequest) (*nn.Network, *dataset.Dataset, error) {
		select {
		case <-time.After(250 * time.Millisecond):
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
		return testResolver(ctx, req)
	}
	nodes := startTestCluster(t, []string{"a", "b", "c"}, func(name string) Config {
		cfg := Config{Workers: 1}
		if name == "a" {
			cfg.Resolver = slow
		}
		return cfg
	}, 25*time.Millisecond, 3, 8) // dead after 200ms: slow enough not to flap under -race, fast enough for the test
	a, b, c := nodes["a"], nodes["b"], nodes["c"]

	const jobs = 4
	reqs := make([]JobRequest, jobs)
	ids := make([]string, jobs)
	for i := range reqs {
		reqs[i] = tinyRequest()
		reqs[i].Profile.Seed = uint64(i + 1) // distinct keys → records spread over both survivors
		j, err := a.m.Submit(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID()
	}
	// The jobs are acknowledged the moment Submit returned; don't kill a
	// until their ownership records have reached the survivors, or the
	// loss would be the replication pipeline's latency, not a's death.
	waitUntil(t, "ownership records replicated", 10*time.Second, func() bool {
		return b.c.OwnedCount()+c.c.OwnedCount() >= jobs
	})

	a.m.Crash()
	a.ts.Close()

	for _, id := range ids {
		id := id
		waitUntil(t, "job "+id+" done on a survivor", 30*time.Second, func() bool {
			for _, n := range []*testNode{b, c} {
				if j, err := n.m.Get(id); err == nil && j.State() == StateDone {
					return true
				}
			}
			return false
		})
	}
	if got := b.c.Handoffs() + c.c.Handoffs(); got < jobs {
		t.Fatalf("survivors recorded %d handoffs, want >= %d", got, jobs)
	}

	// Bit-identical to a single-node run: same Bits allocation, same
	// σ_Y^L, job by job.
	solo := newTestManager(t, Config{Workers: 1})
	for i, id := range ids {
		ref, err := solo.Submit(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, ref, StateDone)
		// Under load the survivors can briefly declare each other dead
		// and re-admit each other's jobs, so both may hold a copy. Wait
		// until every copy has settled; each must be done and match.
		var adopted []*Job
		waitUntil(t, "every copy of job "+id+" terminal", 30*time.Second, func() bool {
			adopted = adopted[:0]
			for _, n := range []*testNode{b, c} {
				if j, err := n.m.Get(id); err == nil {
					if !j.State().Terminal() {
						return false
					}
					adopted = append(adopted, j)
				}
			}
			return true
		})
		for _, j := range adopted {
			if j.State() != StateDone {
				t.Fatalf("job %s copy ended %s, want done (err=%q)", id, j.State(), j.Err())
			}
			got, want := j.Result(), ref.Result()
			if got == nil || want == nil {
				t.Fatalf("job %s missing a result (cluster=%v solo=%v)", id, got != nil, want != nil)
			}
			if got.SigmaYL != want.SigmaYL {
				t.Fatalf("job %s σ_Y^L diverged after handoff: %v vs %v", id, got.SigmaYL, want.SigmaYL)
			}
			if len(got.Bits) != len(want.Bits) {
				t.Fatalf("job %s bit allocation length diverged: %d vs %d", id, len(got.Bits), len(want.Bits))
			}
			for l := range got.Bits {
				if got.Bits[l] != want.Bits[l] {
					t.Fatalf("job %s layer %d bits diverged after handoff: %d vs %d", id, l, got.Bits[l], want.Bits[l])
				}
			}
		}
	}
}
