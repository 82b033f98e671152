package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mupod/internal/dataset"
	"mupod/internal/fault"
	"mupod/internal/nn"
)

// The chaos suite exercises the robustness machinery end to end: crash
// recovery from the WAL, failpoint-injected stage failures with retry,
// panic containment, overload shedding and the profile circuit breaker.
// Failpoints are process-global, so none of these tests run in parallel
// and each arms points under t.Cleanup(fault.Reset).

// TestCrashRecoveryReplay kills a manager (journal first, like kill -9)
// with one job mid-run and two queued, then restarts over the same
// DataDir and expects all three to finish.
func TestCrashRecoveryReplay(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 8)
	stall := func(ctx context.Context, req *JobRequest) (*nn.Network, *dataset.Dataset, error) {
		started <- struct{}{}
		<-ctx.Done() // parked until Crash cancels everything
		return nil, nil, ctx.Err()
	}
	a, err := New(Config{Workers: 1, DataDir: dir, NoFsync: true, Logf: t.Logf, Resolver: stall})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := a.Submit(tinyRequest())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	<-started // first job is running; the other two sit in the queue
	a.Crash()

	b := newTestManager(t, Config{Workers: 2, DataDir: dir, NoFsync: true})
	for _, id := range ids {
		j, err := b.Get(id)
		if err != nil {
			t.Fatalf("job %s lost across the crash: %v", id, err)
		}
		waitState(t, j, StateDone)
	}
	first, _ := b.Get(ids[0])
	if got := first.Attempt(); got != 2 {
		t.Errorf("mid-run job attempt = %d after recovery, want 2 (crashed run + replay run)", got)
	}
	if got := b.metrics.recoveredRequeue.Value(); got != 3 {
		t.Errorf("mupod_jobs_recovered_total{disposition=\"requeued\"} = %d, want 3", got)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Errorf("recovery did not compact to a snapshot: %v", err)
	}
}

// TestCrashRecoveryExhaustedAttemptsFails: a job that was already on its
// final attempt when the crash hit must not crash-loop — recovery
// finalizes it failed.
func TestCrashRecoveryExhaustedAttemptsFails(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	stall := func(ctx context.Context, req *JobRequest) (*nn.Network, *dataset.Dataset, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}
	a, err := New(Config{Workers: 1, MaxAttempts: 1, DataDir: dir, NoFsync: true, Logf: t.Logf, Resolver: stall})
	if err != nil {
		t.Fatal(err)
	}
	j, err := a.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	a.Crash()

	b := newTestManager(t, Config{Workers: 1, MaxAttempts: 1, DataDir: dir, NoFsync: true})
	got, err := b.Get(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, got, StateFailed)
	if !strings.Contains(got.Err(), "interrupted by crash") {
		t.Errorf("err = %q, want the crash-recovery disposition", got.Err())
	}
	if b.metrics.recoveredFailed.Value() != 1 {
		t.Errorf("mupod_jobs_recovered_total{disposition=\"failed\"} = %d, want 1", b.metrics.recoveredFailed.Value())
	}
}

// TestTransientFailpointRetries: a transient stage failure re-queues the
// job with backoff until it succeeds within the attempt budget.
func TestTransientFailpointRetries(t *testing.T) {
	t.Cleanup(fault.Reset)
	if err := fault.Enable("profile.sweep", "2*error(transient:chaos)"); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{
		Workers: 1, MaxAttempts: 3,
		RetryBaseDelay: time.Millisecond, RetryMaxDelay: 5 * time.Millisecond,
	})
	j, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	if got := j.Attempt(); got != 3 {
		t.Errorf("attempt = %d, want 3 (two transient failures, then success)", got)
	}
	if got := m.Metrics().Retries(); got != 2 {
		t.Errorf("mupod_job_retries_total = %d, want 2", got)
	}
	if got := fault.Triggered("profile.sweep"); got != 2 {
		t.Errorf("failpoint fired %d times, want 2", got)
	}
}

// TestTransientExhaustsAttemptBudget: retries stop at MaxAttempts and
// the job fails with the last transient error.
func TestTransientExhaustsAttemptBudget(t *testing.T) {
	t.Cleanup(fault.Reset)
	if err := fault.Enable("profile.sweep", "error(transient:flaky disk)"); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{
		Workers: 1, MaxAttempts: 2,
		RetryBaseDelay: time.Millisecond, RetryMaxDelay: 5 * time.Millisecond,
		BreakerThreshold: -1, // isolate retry behavior from the breaker
	})
	j, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	if got := j.Attempt(); got != 2 {
		t.Errorf("attempt = %d, want 2", got)
	}
	if !strings.Contains(j.Err(), "flaky disk") {
		t.Errorf("err = %q, want the injected transient error", j.Err())
	}
	if got := m.Metrics().Retries(); got != 1 {
		t.Errorf("mupod_job_retries_total = %d, want 1", got)
	}
}

// TestPermanentFailpointFailsFast: a non-transient error never retries.
func TestPermanentFailpointFailsFast(t *testing.T) {
	t.Cleanup(fault.Reset)
	if err := fault.Enable("search.probe", "error(dead)"); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Workers: 1, MaxAttempts: 3})
	j, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	if got := j.Attempt(); got != 1 {
		t.Errorf("attempt = %d, want 1 (permanent errors do not retry)", got)
	}
	if got := m.Metrics().Retries(); got != 0 {
		t.Errorf("mupod_job_retries_total = %d, want 0", got)
	}
}

// TestPanicFailpointIsContained: a panicking stage fails its job; the
// worker and the daemon survive to run the next, identical job. A panic
// inside the profile or the front cache's compute must also release
// that key, or the next job waits on it until its stage deadline.
func TestPanicFailpointIsContained(t *testing.T) {
	for _, tc := range []struct {
		point string
		req   JobRequest
	}{
		{"solve.allocate", tinyRequest()},
		{"profile.sweep", tinyRequest()},
		{"pareto.generation", paretoRequest()},
	} {
		t.Run(tc.point, func(t *testing.T) {
			t.Cleanup(fault.Reset)
			if err := fault.Enable(tc.point, "1*panic(kaboom)"); err != nil {
				t.Fatal(err)
			}
			m := newTestManager(t, Config{Workers: 1, MaxAttempts: 1})
			j, err := m.Submit(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, j, StateFailed)
			if !strings.Contains(j.Err(), "panicked") || !strings.Contains(j.Err(), "kaboom") {
				t.Errorf("err = %q, want a contained panic", j.Err())
			}
			j2, err := m.Submit(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, j2, StateDone) // the pool is still alive
		})
	}
}

// TestLatencyFailpoint: sleep-mode injection delays a stage without
// failing it; combined with StageTimeout it turns into a deadline error.
func TestLatencyFailpoint(t *testing.T) {
	t.Cleanup(fault.Reset)
	if err := fault.Enable("search.probe", "1*sleep(50ms)"); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Workers: 1})
	j, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	if got := fault.Triggered("search.probe"); got != 1 {
		t.Errorf("latency failpoint fired %d times, want 1", got)
	}
}

func TestLatencyFailpointTripsStageTimeout(t *testing.T) {
	t.Cleanup(fault.Reset)
	if err := fault.Enable("search.probe", "sleep(10s)"); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Workers: 1, MaxAttempts: 1, StageTimeout: 50 * time.Millisecond})
	j, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	if !strings.Contains(j.Err(), "deadline") {
		t.Errorf("err = %q, want a stage deadline failure", j.Err())
	}
}

// TestShedding429: with one worker pinned and a depth-1 queue, a burst
// of submissions is shed with 429 + Retry-After and counted — and the
// Retry-After estimate covers the in-flight job, not just the queue.
func TestShedding429(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1, Resolver: blockingResolver})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	// Prime occupancy deterministically: one job running (in-flight),
	// one job filling the depth-1 queue.
	j1, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, j1)
	if _, err := m.Submit(tinyRequest()); err != nil {
		t.Fatal(err)
	}

	body := `{"model":"testnet","profile":{"images":8,"points":5,"seed":1},"search":{"reldrop":0.05,"evalimages":64,"tol":0.2,"seed":2}}`
	shedResp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if shedResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit into a saturated depth-1 queue = %d, want 429", shedResp.StatusCode)
	}
	defer shedResp.Body.Close()
	ra := shedResp.Header.Get("Retry-After")
	if ra == "" {
		t.Error("429 carried no Retry-After header")
	}
	// No job has finished, so the estimate uses the 5s/job default:
	// (1 queued + 1 in-flight + 1 itself) × 5s / 1 worker = 15s. The
	// old queue-only formula undershot to 10s — every worker holds a
	// job that still needs up to a full service time.
	if secs, err := strconv.Atoi(ra); err != nil || secs < 15 {
		t.Errorf("Retry-After = %q, want >= 15s (in-flight job counted)", ra)
	}
	if got := m.Metrics().Shed(); got < 1 {
		t.Errorf("mupod_jobs_shed_total = %d, want >= 1", got)
	}

	page := httpGet(t, ts.URL+"/metrics")
	if !strings.Contains(page, "mupod_jobs_shed_total") {
		t.Error("mupod_jobs_shed_total missing from /metrics")
	}

	// Unpin everything so the test teardown's Shutdown is fast.
	for _, j := range m.Jobs() {
		m.Cancel(j.ID()) //nolint:errcheck
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestBreakerOpensAndRecovers: consecutive profile failures trip the
// breaker, which sheds further computes with a transient error until the
// cooldown lets a successful probe close it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	t.Cleanup(fault.Reset)
	if err := fault.Enable("profile.sweep", "2*error(boom)"); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{
		Workers: 1, MaxAttempts: 1,
		BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
	})
	// Two failures trip the breaker open.
	for i := 0; i < 2; i++ {
		j, err := m.Submit(tinyRequest())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateFailed)
	}
	if got := m.metrics.breakerOpens.Value(); got != 1 {
		t.Fatalf("mupod_breaker_opens_total = %d, want 1", got)
	}
	// While open, the compute path is shed without running the profiler.
	j, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	if !strings.Contains(j.Err(), "circuit breaker open") {
		t.Errorf("err = %q, want a breaker shed", j.Err())
	}
	if got := fault.Triggered("profile.sweep"); got != 2 {
		t.Errorf("profiler ran %d times, want 2 (breaker must shed the third)", got)
	}
	// After the cooldown the failpoint budget is exhausted, so the probe
	// succeeds and the breaker closes.
	time.Sleep(80 * time.Millisecond)
	j, err = m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	if got := m.breaker.State(); got != breakerClosed {
		t.Errorf("breaker state = %d after successful probe, want closed", got)
	}
}

// TestBreakerPanickedProbeReopens: a half-open probe that panics counts
// as a failed probe and reopens the breaker, so a probe after the next
// cooldown can close it; the panic must not leave the breaker probing
// for good, shedding every later compute.
func TestBreakerPanickedProbeReopens(t *testing.T) {
	t.Cleanup(fault.Reset)
	if err := fault.Enable("profile.sweep", "1*error(boom)"); err != nil {
		t.Fatal(err)
	}
	const cooldown = 20 * time.Millisecond
	m := newTestManager(t, Config{
		Workers: 1, MaxAttempts: 1,
		BreakerThreshold: 1, BreakerCooldown: cooldown,
	})
	run := func(want State) *Job {
		t.Helper()
		j, err := m.Submit(tinyRequest())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, want)
		return j
	}
	run(StateFailed) // opens the breaker
	time.Sleep(2 * cooldown)
	if err := fault.Enable("profile.sweep", "1*panic(kaboom)"); err != nil {
		t.Fatal(err)
	}
	if j := run(StateFailed); !strings.Contains(j.Err(), "kaboom") {
		t.Errorf("probe err = %q, want the contained panic", j.Err())
	}
	if got := m.metrics.breakerOpens.Value(); got != 2 {
		t.Fatalf("mupod_breaker_opens_total = %d, want 2 (the panicked probe reopens)", got)
	}
	fault.Reset()
	time.Sleep(2 * cooldown)
	run(StateDone)
}
