package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mupod/internal/dataset"
	"mupod/internal/fault"
	"mupod/internal/nn"
)

// gateResolver resolves instantly except for requests marked with
// gateSeed, which park until release is closed — a way to pin the
// worker pool while a backlog accumulates.
const gateSeed = 999

func gateResolver(release <-chan struct{}) Resolver {
	return func(ctx context.Context, req *JobRequest) (*nn.Network, *dataset.Dataset, error) {
		if req.Seed == gateSeed {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}
		return testResolver(ctx, req)
	}
}

func tenantRequest(tenant string) JobRequest {
	req := tinyRequest()
	req.Tenant = tenant
	return req
}

// TestFairnessWeightedCompletion is the fairness property test: with
// one worker and tenants weighted 2:1, a saturated backlog completes in
// the exact a,a,b deficit-round-robin interleave (ratio 2:1), and the
// results are bit-identical across tenants because the caches are
// content-addressed, not tenant-scoped.
func TestFairnessWeightedCompletion(t *testing.T) {
	release := make(chan struct{})
	m := newTestManager(t, Config{
		Workers:       1,
		QueueDepth:    64,
		TenantWeights: map[string]int{"a": 2, "b": 1},
		Resolver:      gateResolver(release),
	})

	// Pin the worker so the whole backlog is queued before any of it is
	// scheduled.
	gate := tenantRequest("gate")
	gate.Seed = gateSeed
	gj, err := m.Submit(gate)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, gj)

	// Interleave the submissions adversarially (b first, alternating):
	// arrival order must not matter, only weights.
	var jobs []*Job
	for i := 0; i < 5; i++ {
		for _, tenant := range []string{"b", "a", "a"} {
			j, err := m.Submit(tenantRequest(tenant))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	close(release)

	for _, j := range jobs {
		waitState(t, j, StateDone)
	}

	// Completion order == dequeue order (one worker): read it off the
	// finish timestamps.
	sort.Slice(jobs, func(i, k int) bool {
		return jobs[i].View().Finished.Before(*jobs[k].View().Finished)
	})
	var order []string
	for _, j := range jobs {
		order = append(order, j.TenantName())
	}
	want := []string{"b", "a", "a", "a", "a", "b", "a", "a", "b", "a", "a", "b", "a", "a", "b"}
	// The first turn goes to b (it joined the ring first), then the
	// deficit cycle settles into a,a,b. Rather than over-specify the
	// opening, assert the DRR ratio on a sliding window: every window
	// of 3 completions holds exactly one b.
	for i := 0; i+3 <= len(order); i++ {
		bs := 0
		for _, tn := range order[i : i+3] {
			if tn == "b" {
				bs++
			}
		}
		if bs != 1 {
			t.Fatalf("completion window [%d,%d) = %v has %d b's, want exactly 1 (full order %v, reference %v)",
				i, i+3, order[i:i+3], bs, order, want)
		}
	}
	// Overall ratio 10:5 — exact 2:1, trivially within the 15% gate.
	var na, nb int
	for _, tn := range order {
		if tn == "a" {
			na++
		} else {
			nb++
		}
	}
	if na != 10 || nb != 5 {
		t.Fatalf("completions a=%d b=%d, want 10 and 5", na, nb)
	}

	// Bit-identical results regardless of tenant: same spec, same bits.
	ref := jobs[0].Result().Bits
	if len(ref) == 0 {
		t.Fatal("first job has no bit allocation")
	}
	for _, j := range jobs {
		if !reflect.DeepEqual(j.Result().Bits, ref) {
			t.Fatalf("job %s (tenant %s) bits %v differ from %v — tenancy leaked into results",
				j.ID(), j.TenantName(), j.Result().Bits, ref)
		}
	}
}

// waitRunning polls until the job reaches StateRunning (and is counted
// in-flight, which happens on the same path before the journal append).
func waitRunning(t *testing.T, m *Manager, j *Job) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == StateRunning && m.inflight.Load() > 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached running (state %s)", j.ID(), j.State())
}

// TestBatchSubmitSingleFlush: a batch of N accepted jobs costs exactly
// one journal flush (the acceptance bound is ≤ 2 fsyncs).
func TestBatchSubmitSingleFlush(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	dir := t.TempDir()
	m := newTestManager(t, Config{
		Workers: 1, QueueDepth: 16, DataDir: dir, NoFsync: true,
		Resolver: gateResolver(release),
	})

	gate := tinyRequest()
	gate.Seed = gateSeed
	gj, err := m.Submit(gate)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, gj)
	// runJob marks the gate running before it journals the running
	// record, so wait for that record's flush (the third: epoch, submit,
	// running) or it can land inside the window measured below.
	deadline := time.Now().Add(10 * time.Second)
	for m.journal.Flushes() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("gate job's running record never flushed (%d flushes)", m.journal.Flushes())
		}
		time.Sleep(2 * time.Millisecond)
	}

	before := m.journal.Flushes()
	reqs := make([]JobRequest, 5)
	for i := range reqs {
		reqs[i] = tenantRequest("batch")
	}
	results := m.SubmitBatch(reqs)
	flushes := m.journal.Flushes() - before
	if flushes > 2 {
		t.Fatalf("batch submit of %d jobs cost %d journal flushes, want <= 2", len(reqs), flushes)
	}
	if flushes != 1 {
		t.Errorf("batch submit of %d jobs cost %d journal flushes, want 1", len(reqs), flushes)
	}
	for i, res := range results {
		if res.Err != nil || res.Job == nil {
			t.Fatalf("batch item %d: %v", i, res.Err)
		}
	}
	if got := m.Metrics().TenantJobs("batch"); got != 5 {
		t.Errorf("mupod_tenant_jobs_total{tenant=batch} = %d, want 5", got)
	}
}

// TestBatchEndpointPartialAccept: POST /v1/jobs:batch admits what fits
// and sheds the rest with per-item 429s and a 207 overall.
func TestBatchEndpointPartialAccept(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	m := newTestManager(t, Config{
		Workers: 1, QueueDepth: 3, Resolver: gateResolver(release),
	})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	gate := tinyRequest()
	gate.Seed = gateSeed
	gj, err := m.Submit(gate)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, gj)

	item := `{"model":"testnet","profile":{"images":8,"points":5,"seed":1},"search":{"reldrop":0.05,"evalimages":64,"tol":0.2,"seed":2}}`
	body := fmt.Sprintf(`{"jobs":[%s,%s,%s,%s,%s]}`, item, item, item, item, item)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs:batch", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Mupod-Tenant", "hdr-tenant")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMultiStatus {
		t.Fatalf("batch status = %d, want 207", resp.StatusCode)
	}
	var view BatchView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Accepted != 3 || view.Rejected != 2 {
		t.Fatalf("accepted=%d rejected=%d, want 3/2", view.Accepted, view.Rejected)
	}
	for i, it := range view.Items {
		switch {
		case i < 3:
			if it.Status != http.StatusAccepted || it.Job == nil || it.Job.Tenant != "hdr-tenant" {
				t.Fatalf("item %d = %+v, want accepted with header tenant", i, it)
			}
		default:
			if it.Status != http.StatusTooManyRequests || it.RetryAfterSecs < 1 {
				t.Fatalf("item %d = %+v, want 429 with retry_after_secs", i, it)
			}
		}
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("partial batch carried no Retry-After header")
	}
	if got := m.Metrics().TenantShed("hdr-tenant"); got != 2 {
		t.Errorf("mupod_tenant_shed_total{tenant=hdr-tenant} = %d, want 2", got)
	}
}

// TestTenantQuota: with a per-tenant quota, one tenant exhausting its
// share sheds with ErrTenantQuota while other tenants still admit.
func TestTenantQuota(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	m := newTestManager(t, Config{
		Workers: 1, QueueDepth: 16, TenantQuota: 2, Resolver: gateResolver(release),
	})

	gate := tinyRequest()
	gate.Seed = gateSeed
	gj, err := m.Submit(gate)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, gj)

	for i := 0; i < 2; i++ {
		if _, err := m.Submit(tenantRequest("greedy")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Submit(tenantRequest("greedy")); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("third greedy submit = %v, want ErrTenantQuota", err)
	}
	if _, err := m.Submit(tenantRequest("polite")); err != nil {
		t.Fatalf("other tenant shed too: %v", err)
	}
	if got := m.TenantQueueDepth("greedy"); got != 2 {
		t.Errorf("TenantQueueDepth(greedy) = %d, want 2", got)
	}
	if got := m.Metrics().TenantShed("greedy"); got != 1 {
		t.Errorf("mupod_tenant_shed_total{tenant=greedy} = %d, want 1", got)
	}
}

// TestTenantListFilterAndMetricsPage: GET /v1/jobs?tenant= filters, the
// JobView carries the tenant, and /metrics exposes the tenant families.
func TestTenantListFilterAndMetricsPage(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, QueueDepth: 16})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	var jobs []*Job
	for _, tenant := range []string{"a", "a", "b"} {
		j, err := m.Submit(tenantRequest(tenant))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitState(t, j, StateDone)
	}

	var views []JobView
	if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/v1/jobs?tenant=a")), &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Fatalf("tenant=a filter returned %d jobs, want 2", len(views))
	}
	for _, v := range views {
		if v.Tenant != "a" {
			t.Fatalf("filtered view has tenant %q", v.Tenant)
		}
	}

	page := httpGet(t, ts.URL+"/metrics")
	for _, want := range []string{
		`mupod_tenant_jobs_total{tenant="a"} 2`,
		`mupod_tenant_jobs_total{tenant="b"} 1`,
		`mupod_tenant_queue_depth{tenant="a"} 0`,
		`mupod_tenant_shed_total{tenant="a"} 0`,
		`mupod_tenant_job_duration_seconds_count{tenant="b"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTenantMetricsCardinalityBound: past maxTenantSeries distinct
// tenants the exposition folds into "_other" instead of growing without
// bound.
func TestTenantMetricsCardinalityBound(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 4})
	for i := 0; i < maxTenantSeries+8; i++ {
		m.tenantSeries(fmt.Sprintf("t%03d", i)).jobs.Inc()
	}
	mm := m.Metrics()
	mm.tenantMu.Lock()
	n := len(mm.tenants)
	_, overflow := mm.tenants[tenantOverflow]
	mm.tenantMu.Unlock()
	if n != maxTenantSeries+1 || !overflow {
		t.Fatalf("tenant series = %d (overflow present=%v), want %d + %q", n, overflow, maxTenantSeries, tenantOverflow)
	}
	if got := mm.TenantJobs(tenantOverflow); got != 8 {
		t.Fatalf("overflow series holds %d jobs, want 8", got)
	}
}

// TestRetryRequeueRespectsQueueDepth is the regression test for the
// retry-admission bug: after crash recovery force-admits a backlog
// larger than QueueDepth, a retrying job must wait for the queue to
// drain below the configured bound before re-entering. The old check
// (len < cap on a recovery-oversized channel) re-admitted immediately.
func TestRetryRequeueRespectsQueueDepth(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()

	// Uptime A: park the worker and build a 3-job backlog, then crash.
	releaseA := make(chan struct{})
	defer close(releaseA)
	a := newTestManager(t, Config{
		Workers: 1, QueueDepth: 8, DataDir: dir, NoFsync: true,
		Resolver: gateResolver(releaseA),
	})
	gate := tinyRequest()
	gate.Seed = gateSeed
	gj, err := a.Submit(gate)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, a, gj)
	for i := 0; i < 3; i++ {
		// The backlog jobs gate too: in uptime B they pin the worker so
		// the recovered queue provably stays above the new depth.
		req := tinyRequest()
		req.Seed = gateSeed
		if _, err := a.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	a.Crash()

	// Uptime B: QueueDepth 1, so the recovered 4-job backlog is far
	// over the bound. The first job's first run fails transiently; its
	// retry must stay parked (interrupted) while the backlog holds the
	// queue at or above depth — it cannot ride the oversized capacity
	// back in.
	if err := fault.Enable("serve.resolve", "1*error(transient:chaos)"); err != nil {
		t.Fatal(err)
	}
	releaseB := make(chan struct{})
	b := newTestManager(t, Config{
		Workers: 1, QueueDepth: 1, DataDir: dir, NoFsync: true,
		MaxAttempts: 3, RetryBaseDelay: 2 * time.Millisecond, RetryMaxDelay: 4 * time.Millisecond,
		Resolver: gateResolver(releaseB),
	})
	first, err := b.Get(gj.ID())
	if err != nil {
		t.Fatal(err)
	}
	// The interrupted gate job is first in the recovered queue, so it
	// absorbs the armed transient failure and parks for retry. (Its
	// gateSeed only matters once it resolves — releaseB stays open for
	// the moment so the worker pins on the next job.)
	deadline := time.Now().Add(10 * time.Second)
	for first.State() != StateInterrupted {
		if time.Now().After(deadline) {
			t.Fatalf("first job state = %s, never interrupted", first.State())
		}
		time.Sleep(time.Millisecond)
	}

	// Backoff is single-digit milliseconds; give the retry goroutine
	// many chances to (wrongly) re-queue. Queue occupancy stays >= 2
	// (recovered jobs) against a depth of 1, so it must hold parked.
	time.Sleep(150 * time.Millisecond)
	if got := first.State(); got != StateInterrupted {
		t.Fatalf("retry re-entered a queue holding %d >= depth %d jobs (state %s)",
			b.QueueDepth(), 1, got)
	}
	if got := b.QueueDepth(); got < 2 {
		t.Fatalf("test premise broken: recovered queue drained to %d early", got)
	}

	// Unpin: the backlog drains under the bound and the retry admits.
	close(releaseB)
	waitState(t, first, StateDone)
	for _, j := range b.Jobs() {
		waitState(t, j, StateDone)
	}
}

// TestCompactionCrashWindowIsAtomic is the chaos regression for the
// startup-compaction crash window: a kill between snapshot install and
// journal truncation used to replay the stale journal on top of the
// compacted snapshot (duplicate records, resurrected states). The epoch
// guard must ignore the stale journal instead.
func TestCompactionCrashWindowIsAtomic(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()

	a := newTestManager(t, Config{Workers: 1, DataDir: dir, NoFsync: true})
	j1, err := a.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := a.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone)
	waitState(t, j2, StateDone)
	a.Crash()

	// Restart B dies exactly in the window: new snapshot installed, old
	// journal still in place.
	if err := fault.Enable("serve.compact.window", "1*panic(killed in compaction window)"); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compaction-window failpoint did not fire")
			}
		}()
		New(Config{Workers: 1, DataDir: dir, NoFsync: true, Resolver: testResolver, Logf: t.Logf}) //nolint:errcheck
	}()

	// Restart C recovers for real. The stale journal must be detected
	// (epoch mismatch) and ignored — no duplicated history, results
	// intact, attempts not inflated.
	var lc logCapture
	c, err := New(Config{Workers: 1, DataDir: dir, NoFsync: true, Resolver: testResolver, Logf: lc.logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Shutdown(ctx) //nolint:errcheck
	})
	if !lc.contains("ignoring the stale journal") {
		t.Errorf("recovery did not flag the stale journal; log: %v", lc.lines)
	}
	for _, id := range []string{j1.ID(), j2.ID()} {
		got, err := c.Get(id)
		if err != nil {
			t.Fatalf("job %s lost across the crash window: %v", id, err)
		}
		if got.State() != StateDone || got.Result() == nil {
			t.Fatalf("job %s = {state %s, result %v}, want done with result", id, got.State(), got.Result())
		}
		if got.Attempt() != 1 {
			t.Errorf("job %s attempt = %d, want 1 (stale replay inflated it)", id, got.Attempt())
		}
		var done int
		for _, e := range got.Timeline() {
			if e.Event == string(StateDone) {
				done++
			}
		}
		if done != 1 {
			t.Errorf("job %s timeline has %d done entries, want 1 (stale replay duplicated history)", id, done)
		}
	}
	if got := len(c.Jobs()); got != 2 {
		t.Errorf("recovered %d jobs, want 2", got)
	}
}

// TestAdmissionRaceHammer interleaves Submit storms, transient-failure
// retries and Shutdown on a recovery-oversized queue — the interleaving
// that motivated unifying admission behind one reservation path. Run
// with -race; the assertions are liveness plus the admission invariant.
func TestAdmissionRaceHammer(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()

	// Build a recovered backlog above QueueDepth.
	releaseA := make(chan struct{})
	defer close(releaseA)
	a := newTestManager(t, Config{
		Workers: 1, QueueDepth: 16, DataDir: dir, NoFsync: true,
		Resolver: gateResolver(releaseA),
	})
	gate := tinyRequest()
	gate.Seed = gateSeed
	gj, err := a.Submit(gate)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, a, gj)
	for i := 0; i < 7; i++ {
		if _, err := a.Submit(tenantRequest(fmt.Sprintf("t%d", i%3))); err != nil {
			t.Fatal(err)
		}
	}
	a.Crash()

	// Every few resolves fails transiently, keeping retryLater busy.
	if err := fault.Enable("serve.resolve", "4*error(transient:chaos)"); err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Workers: 2, QueueDepth: 4, TenantQuota: 3, DataDir: dir, NoFsync: true,
		MaxAttempts: 3, RetryBaseDelay: time.Millisecond, RetryMaxDelay: 2 * time.Millisecond,
		TenantWeights: map[string]int{"t0": 2, "t1": 1},
		Resolver:      testResolver,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := tenantRequest(fmt.Sprintf("t%d", rng.Intn(4)))
				if _, err := m.Submit(req); err != nil &&
					!errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrTenantQuota) && !errors.Is(err, ErrDraining) {
					t.Errorf("submit: %v", err)
					return
				}
				if i%8 == 0 {
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				}
			}
		}(g)
	}
	// Sample the admission invariant while the storm runs: occupancy
	// never exceeds the recovered backlog, and once it has drained to
	// QueueDepth it never climbs back above it.
	var belowOnce bool
	for i := 0; i < 100; i++ {
		d := m.QueueDepth()
		if d > 8 && !belowOnce {
			t.Errorf("queue depth %d exceeds the recovered backlog", d)
		}
		if belowOnce && d > 4 {
			t.Errorf("queue depth %d re-exceeded QueueDepth 4 after draining", d)
		}
		if d <= 4 {
			belowOnce = true
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under storm: %v", err)
	}
	for _, j := range m.Jobs() {
		if !j.State().Terminal() {
			t.Errorf("job %s left non-terminal after shutdown: %s", j.ID(), j.State())
		}
	}
}
