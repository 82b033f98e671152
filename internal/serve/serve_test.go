package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mupod/internal/dataset"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/profile"
	"mupod/internal/search"
	"mupod/internal/testnet"
)

// testResolver serves the shared tiny trained network — jobs complete
// in well under a second.
func testResolver(ctx context.Context, req *JobRequest) (*nn.Network, *dataset.Dataset, error) {
	net, _, te := testnet.Trained()
	return net, te, nil
}

// blockingResolver parks until the job is cancelled — used to pin jobs
// in the running state.
func blockingResolver(ctx context.Context, req *JobRequest) (*nn.Network, *dataset.Dataset, error) {
	<-ctx.Done()
	return nil, nil, ctx.Err()
}

// tinyRequest keeps the pipeline cheap: few profiling points, a loose
// constraint, a coarse binary search.
func tinyRequest() JobRequest {
	return JobRequest{
		Model: "testnet", // resolved by testResolver, never the zoo
		Profile: profile.Config{
			Images: 8, Points: 5, Seed: 1,
		},
		Search: search.Options{
			RelDrop: 0.05, EvalImages: 64, Tol: 0.2, Seed: 2,
		},
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Resolver == nil {
		cfg.Resolver = testResolver
	}
	cfg.Logf = t.Logf
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx) //nolint:errcheck // double-shutdown in tests is fine
	})
	return m
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not finish: %v (state %s)", j.ID(), err, j.State())
	}
	if got := j.State(); got != want {
		t.Fatalf("job %s state = %s, want %s (err=%q)", j.ID(), got, want, j.Err())
	}
}

func TestJobLifecycleDone(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	j, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	if s := j.State(); s != StateQueued && s != StateRunning && s != StateDone {
		t.Fatalf("fresh job in unexpected state %s", s)
	}
	waitState(t, j, StateDone)

	res := j.Result()
	if res == nil {
		t.Fatal("done job has no result")
	}
	if len(res.Layers) == 0 || len(res.Bits) != len(res.Layers) {
		t.Fatalf("malformed result: %d layers, %d bits", len(res.Layers), len(res.Bits))
	}
	if res.SigmaYL <= 0 {
		t.Fatalf("non-positive σ_YŁ %g", res.SigmaYL)
	}
	if res.ProfileCacheHit {
		t.Fatal("first submission cannot hit the profile cache")
	}
	v := j.View()
	if v.Started == nil || v.Finished == nil || v.Finished.Before(*v.Started) {
		t.Fatalf("inconsistent timestamps: %+v", v)
	}
}

func TestJobFailure(t *testing.T) {
	m := newTestManager(t, Config{
		Workers: 1,
		Resolver: func(ctx context.Context, req *JobRequest) (*nn.Network, *dataset.Dataset, error) {
			return nil, nil, fmt.Errorf("no such network")
		},
	})
	j, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	if !strings.Contains(j.Err(), "no such network") {
		t.Fatalf("error not propagated: %q", j.Err())
	}
	if j.Result() != nil {
		t.Fatal("failed job has a result")
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	cases := []JobRequest{
		{},                                // neither model nor network
		{Model: "x", Network: "y"},        // both
		{Model: "x", Objective: "??"},     // unknown objective
		{Model: "x", Objective: "custom"}, // custom without rho
	}
	for i, req := range cases {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("case %d: invalid request accepted", i)
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, Resolver: blockingResolver})
	j, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up.
	deadline := time.Now().Add(5 * time.Second)
	for j.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", j.State())
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if _, err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateCancelled)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt", d)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 4, Resolver: blockingResolver})
	blocker, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, queued, StateCancelled)
	if queued.View().Started != nil {
		t.Fatal("queued job was started despite cancellation")
	}
	// Cancelling a terminal job is an idempotent no-op.
	if _, err := m.Cancel(queued.ID()); err != nil {
		t.Fatalf("second cancel: %v", err)
	}
	if _, err := m.Cancel(blocker.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateCancelled)
}

func TestCancelUnknownJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	if _, err := m.Cancel("j-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

func TestQueueFull(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1, Resolver: blockingResolver})
	a, err := m.Submit(tinyRequest()) // occupies the worker
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker drained it from the channel, so the queue
	// slot is free for exactly one more job.
	deadline := time.Now().Add(5 * time.Second)
	for a.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(tinyRequest()); err != nil { // fills the queue
		t.Fatal(err)
	}
	if _, err := m.Submit(tinyRequest()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	m.Cancel(a.ID()) //nolint:errcheck
}

func TestProfileCacheHitOnIdenticalSubmission(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})

	first, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, StateDone)
	second, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, second, StateDone)

	if first.Result().ProfileCacheHit {
		t.Fatal("first submission hit the cache")
	}
	if !second.Result().ProfileCacheHit {
		t.Fatal("identical second submission missed the cache")
	}
	if hits, misses := m.Metrics().CacheHits(), m.Metrics().CacheMisses(); hits != 1 || misses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", hits, misses)
	}
	// The cached profile must produce the identical allocation.
	if fmt.Sprint(first.Result().Bits) != fmt.Sprint(second.Result().Bits) {
		t.Fatalf("cache changed the answer: %v vs %v", first.Result().Bits, second.Result().Bits)
	}

	// A different profiling config is a different content address.
	req := tinyRequest()
	req.Profile.Seed = 99
	third, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, third, StateDone)
	if third.Result().ProfileCacheHit {
		t.Fatal("different profile config must miss the cache")
	}
}

// TestSubmitRejectsRemovedKernel: a request naming the retired "naive"
// backend gets 400, alone or as a batch item, with a message that names
// the accepted policies.
func TestSubmitRejectsRemovedKernel(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()
	naming := func(msg string) bool {
		return strings.Contains(msg, `"naive"`) && strings.Contains(msg, "blocked") && strings.Contains(msg, "parallel")
	}

	for _, body := range []string{
		`{"model":"testnet","kernel":"naive"}`,
		`{"model":"testnet","profile":{"kernel":{"impl":"naive"}}}`,
		`{"model":"testnet","search":{"kernel":{"impl":"naive"}}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !naming(e.Error) {
			t.Errorf("POST /v1/jobs %s: status %d, error %q", body, resp.StatusCode, e.Error)
		}
	}

	batch := `{"jobs":[{"model":"testnet"},{"model":"testnet","kernel":"naive"}]}`
	resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view BatchView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMultiStatus || view.Accepted != 1 || len(view.Items) != 2 {
		t.Fatalf("batch: status %d, view %+v", resp.StatusCode, view)
	}
	if it := view.Items[1]; it.Status != http.StatusBadRequest || !naming(it.Error) {
		t.Errorf("naive batch item = %+v, want 400 naming blocked and parallel", it)
	}
}

// Settings no stage can use are refused at submit. They used to be
// accepted: images -5 panicked inside profiling (and counted against the
// profile breaker), a negative deltalofrac cached a NaN profile, and a
// negative tol bisected until the stage timeout.
func TestSubmitRejectsOutOfRangeSettings(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()
	for body, want := range map[string]string{
		`{"model":"testnet","profile":{"images":-5}}`:            "images -5",
		`{"model":"testnet","profile":{"deltalofrac":-0.01}}`:    "Δ sweep",
		`{"model":"testnet","search":{"reldrop":0.05,"tol":-1}}`: "tolerance -1",
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, want) {
			t.Errorf("POST /v1/jobs %s: status %d, error %q; want 400 naming %q", body, resp.StatusCode, e.Error, want)
		}
	}
	if jobs := m.Jobs(); len(jobs) != 0 {
		t.Fatalf("%d jobs admitted", len(jobs))
	}
}

func TestProfileKeyNormalization(t *testing.T) {
	net, _, te := testnet.Trained()
	zero := profile.Config{}
	explicit := zero.Normalized()
	if ProfileKey(net, te, zero) != ProfileKey(net, te, explicit) {
		t.Fatal("zero config and its explicit defaults hash differently")
	}
	for _, pol := range []kernels.Policy{{Impl: "blocked"}, {Impl: "parallel", IntraWorkers: 3}} {
		withKernel := explicit
		withKernel.Workers, withKernel.Kernel = 2, pol
		if ProfileKey(net, te, withKernel) != ProfileKey(net, te, explicit) {
			t.Fatalf("workers 2 and kernel policy %+v split the profile key", pol)
		}
	}
	other := explicit
	other.Seed++
	if ProfileKey(net, te, explicit) == ProfileKey(net, te, other) {
		t.Fatal("different seeds hash identically")
	}
}

func TestConcurrentIdenticalSubmissionsShareOneProfilingRun(t *testing.T) {
	m := newTestManager(t, Config{Workers: 4})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := m.Submit(tinyRequest())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitState(t, j, StateDone)
	}
	if misses := m.Metrics().CacheMisses(); misses != 1 {
		t.Fatalf("%d profiling runs for identical concurrent jobs, want 1 (single-flight)", misses)
	}
	want := fmt.Sprint(jobs[0].Result().Bits)
	for _, j := range jobs[1:] {
		if fmt.Sprint(j.Result().Bits) != want {
			t.Fatalf("divergent results: %v vs %s", j.Result().Bits, want)
		}
	}
}

func TestGracefulShutdownFinishesInFlightJobs(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	m, err := New(Config{
		Workers: 1,
		Logf:    t.Logf,
		Resolver: func(ctx context.Context, req *JobRequest) (*nn.Network, *dataset.Dataset, error) {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
			return testResolver(ctx, req)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- m.Shutdown(ctx)
	}()

	// New submissions are rejected while the in-flight job drains.
	deadline := time.Now().Add(5 * time.Second)
	for !m.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("manager never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(tinyRequest()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}

	close(release) // let the in-flight job finish
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	waitState(t, j, StateDone)
}

func TestShutdownDeadlineCancelsStuckJobs(t *testing.T) {
	m, err := New(Config{Workers: 1, Resolver: blockingResolver, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err = %v, want DeadlineExceeded", err)
	}
	waitState(t, j, StateCancelled)
}

func TestStageTimeoutFailsJob(t *testing.T) {
	m := newTestManager(t, Config{
		Workers:      1,
		StageTimeout: 20 * time.Millisecond,
		Resolver: func(ctx context.Context, req *JobRequest) (*nn.Network, *dataset.Dataset, error) {
			<-ctx.Done() // overruns the stage budget, but the job was not cancelled
			return nil, nil, ctx.Err()
		},
	})
	j, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	if !strings.Contains(j.Err(), "deadline exceeded") {
		t.Fatalf("err = %q, want a deadline error", j.Err())
	}
}

// --- HTTP surface ---

func postJob(t *testing.T, ts *httptest.Server, body string) JobView {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d", id, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func pollDone(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := getJob(t, ts, id)
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPSubmitPollCancelMetrics(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	// Submit with lowercase JSON keys (case-insensitive decode).
	body := `{"model":"testnet","objective":"mac",
		"profile":{"images":8,"points":5,"seed":1},
		"search":{"reldrop":0.05,"evalimages":64,"tol":0.2,"seed":2}}`
	v := postJob(t, ts, body)
	if v.ID == "" || v.State == "" {
		t.Fatalf("bad submit response: %+v", v)
	}
	final := pollDone(t, ts, v.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if final.Result == nil || len(final.Result.Bits) == 0 {
		t.Fatal("done job returned no allocation")
	}
	if final.Result.Objective != "opt_for_mac" {
		t.Fatalf("objective %q", final.Result.Objective)
	}

	// Second identical submission: cache hit must be visible in /metrics.
	v2 := postJob(t, ts, body)
	if f := pollDone(t, ts, v2.ID); !f.CacheHit {
		t.Fatal("identical resubmission did not report a cache hit")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	metrics := sb.String()
	for _, want := range []string{
		"mupod_profile_cache_hits_total 1",
		"mupod_profile_cache_misses_total 1",
		`mupod_jobs_completed_total{state="done"} 2`,
		"mupod_stage_latency_seconds_bucket",
		"mupod_queue_depth 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Errors: unknown job, malformed body, unknown field.
	if resp, _ := http.Get(ts.URL + "/v1/jobs/j-999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
	if resp, _ := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
	if resp, _ := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"model":"x","bogus":1}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", resp.StatusCode)
	}

	// Listing returns every job.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []JobView
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(all) != 2 {
		t.Fatalf("listing returned %d jobs, want 2", len(all))
	}

	// Healthz is OK while serving.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
}

func TestHTTPDeleteCancelsRunningJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, Resolver: blockingResolver})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	v := postJob(t, ts, `{"model":"testnet"}`)
	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, ts, v.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("DELETE took %v, want prompt return", d)
	}
	if f := pollDone(t, ts, v.ID); f.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", f.State)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
