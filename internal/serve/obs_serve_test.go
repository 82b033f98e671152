package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// get issues a GET and returns status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestHTTPInstrumentation drives a few routes through the middleware and
// checks the RED families: per-route/method/code counters, per-route
// duration histograms, and the in-flight gauge back at zero.
func TestHTTPInstrumentation(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	if code, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", code)
	}
	if code, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", code)
	}
	if code, _ := get(t, srv.URL+"/v1/jobs"); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs = %d, want 200", code)
	}
	if code, _ := get(t, srv.URL+"/v1/jobs/j-999999"); code != http.StatusNotFound {
		t.Fatalf("GET /v1/jobs/{unknown} = %d, want 404", code)
	}

	_, page := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		`mupod_http_requests_total{route="/healthz",method="GET",code="200"} 2`,
		`mupod_http_requests_total{route="/v1/jobs",method="GET",code="200"} 1`,
		`mupod_http_requests_total{route="/v1/jobs/{id}",method="GET",code="404"} 1`,
		`mupod_http_request_duration_seconds_bucket{route="/healthz",le="+Inf"} 2`,
		`mupod_http_request_duration_seconds_count{route="/healthz"} 2`,
		"mupod_http_in_flight 1", // the /metrics request itself is in flight
		"mupod_go_goroutines",
		"mupod_go_heap_bytes",
		"mupod_go_gc_pause_seconds",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}

	if h := m.Metrics().HTTPDuration("/healthz"); h == nil || h.Count() != 2 {
		t.Errorf("HTTPDuration(/healthz) count = %v, want 2", h)
	}
	if g := m.Metrics().httpInFlight.Value(); g != 0 {
		t.Errorf("in-flight gauge = %v after all requests finished, want 0", g)
	}
}

// TestReadyzTransitions covers the three unready causes: a saturated
// queue, an open profile breaker, and draining — each with its reason in
// the 503 body — plus liveness staying 200 throughout.
func TestReadyzTransitions(t *testing.T) {
	m := newTestManager(t, Config{
		Workers: 1, QueueDepth: 1,
		Resolver:         blockingResolver,
		BreakerThreshold: 1, BreakerCooldown: time.Hour,
	})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	if code, body := get(t, srv.URL+"/readyz"); code != http.StatusOK || !strings.Contains(body, `"ready"`) {
		t.Fatalf("fresh /readyz = %d %q, want 200 ready", code, body)
	}

	// Saturate: one job pinned running, one waiting fills QueueDepth=1.
	j1, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitStateReached(t, j1, StateRunning)
	j2, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, srv.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "queue saturated") {
		t.Fatalf("saturated /readyz = %d %q, want 503 with queue reason", code, body)
	}
	if code, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("liveness flapped with readiness: /healthz = %d, want 200", code)
	}
	if _, err := m.Cancel(j2.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(j1.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateCancelled)
	waitState(t, j2, StateCancelled)

	// Trip the breaker: threshold 1, so a single recorded failure opens.
	m.breaker.Record(context.Background(), errors.New("profile backend down"))
	code, body = get(t, srv.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "breaker open") {
		t.Fatalf("breaker-open /readyz = %d %q, want 503 with breaker reason", code, body)
	}
	m.breaker.Record(context.Background(), nil) // close it again

	// Drain: readiness goes 503 "draining", liveness stays 200.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, srv.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining /readyz = %d %q, want 503 with draining reason", code, body)
	}
	if code, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200 (liveness is not readiness)", code)
	}
}

// waitStateReached polls until the job reports the (non-terminal) state.
func waitStateReached(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (state %s)", j.ID(), want, j.State())
}

// TestJobTimeline checks the stage-by-stage timeline of a completed job:
// lifecycle and pipeline events in order, monotone timestamps,
// non-negative inter-event durations, and the same view over HTTP.
func TestJobTimeline(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	j, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)

	tl := j.Timeline()
	want := []string{"queued", "running", "resolve", "profile", "search", "solve", "done"}
	if len(tl) != len(want) {
		t.Fatalf("timeline = %+v, want events %v", tl, want)
	}
	for i, e := range tl {
		if e.Event != want[i] {
			t.Errorf("timeline[%d].Event = %q, want %q", i, e.Event, want[i])
		}
		if e.SinceMS < 0 {
			t.Errorf("timeline[%d].SinceMS = %g, want >= 0", i, e.SinceMS)
		}
		if i > 0 && e.At.Before(tl[i-1].At) {
			t.Errorf("timeline[%d] at %v precedes timeline[%d] at %v", i, e.At, i-1, tl[i-1].At)
		}
	}

	res := j.Result()
	checkStageMeasures(t, m, j, map[string]float64{
		StageResolve: res.ResolveMS, StageProfile: res.ProfileMS,
		StageSearch: res.SearchMS, StageSolve: res.SolveMS,
	})

	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	_, body := get(t, srv.URL+"/v1/jobs/"+j.ID())
	if !strings.Contains(body, `"timeline"`) || !strings.Contains(body, `"solve"`) {
		t.Errorf("GET /v1/jobs/{id} body has no timeline: %s", body)
	}
}

// checkStageMeasures asserts that each stage was measured once: its
// timeline entry's SinceMS equals its JobResult field (want) bit for
// bit, and its latency histogram holds exactly one observation.
func checkStageMeasures(t *testing.T, m *Manager, j *Job, want map[string]float64) {
	t.Helper()
	var sb strings.Builder
	m.Metrics().Registry().Write(&sb)
	page := sb.String()
	seen := 0
	for _, e := range j.Timeline() {
		ms, ok := want[e.Event]
		if !ok {
			continue
		}
		seen++
		if e.SinceMS != ms {
			t.Errorf("stage %s: timeline since_prev_ms = %v, result field = %v", e.Event, e.SinceMS, ms)
		}
		series := fmt.Sprintf("mupod_stage_latency_seconds_count{stage=%q} 1", e.Event)
		if e.Event == StagePareto {
			series = "mupod_pareto_latency_seconds_count 1"
		}
		if !strings.Contains(page, series+"\n") {
			t.Errorf("/metrics lacks %q", series)
		}
	}
	if seen != len(want) {
		t.Errorf("timeline has %d of the %d stages %v", seen, len(want), want)
	}
}

// TestJobTimelinePareto: a Pareto job's timeline swaps solve for the
// pareto stage.
func TestJobTimelinePareto(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	req := tinyRequest()
	req.Pareto = &ParetoSpec{}
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)

	var events []string
	for _, e := range j.Timeline() {
		events = append(events, e.Event)
	}
	want := []string{"queued", "running", "resolve", "profile", "search", "pareto", "done"}
	if !slicesEqual(events, want) {
		t.Fatalf("pareto timeline = %v, want %v", events, want)
	}
	res := j.Result()
	checkStageMeasures(t, m, j, map[string]float64{
		StageResolve: res.ResolveMS, StageProfile: res.ProfileMS,
		StageSearch: res.SearchMS, StagePareto: res.ParetoMS,
	})
}

// TestTimelineSurvivesRestart: the timeline — stage events included —
// must come back after a shutdown/restart cycle over the same DataDir,
// whether it rides the journal or the compacted snapshot.
func TestTimelineSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	a := newTestManager(t, Config{Workers: 1, DataDir: dir, NoFsync: true})
	j, err := a.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	before := j.Timeline()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	for restart := 1; restart <= 2; restart++ {
		// Restart 1 replays the journal; restart 2 replays the snapshot
		// that restart 1's startup compaction wrote.
		b := newTestManager(t, Config{Workers: 1, DataDir: dir, NoFsync: true})
		got, err := b.Get(j.ID())
		if err != nil {
			t.Fatal(err)
		}
		after := got.Timeline()
		if len(after) != len(before) {
			t.Fatalf("restart %d: timeline went from %d to %d entries: %+v", restart, len(before), len(after), after)
		}
		for i := range before {
			if after[i].Event != before[i].Event || !after[i].At.Equal(before[i].At) {
				t.Fatalf("restart %d: timeline[%d] = %+v, want %+v", restart, i, after[i], before[i])
			}
		}
		if err := b.Shutdown(ctx); err != nil && !strings.Contains(err.Error(), "already") {
			t.Fatal(err)
		}
	}
}

// TestStatusRecorderDefaults: a handler that writes without WriteHeader
// must be counted as 200, and an explicit code must stick.
func TestStatusRecorderDefaults(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	m.metrics.registerHTTP([]string{"/implicit", "/explicit"})
	implicit := m.instrument("/implicit", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	explicit := m.instrument("/explicit", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	implicit(httptest.NewRecorder(), httptest.NewRequest("GET", "/implicit", nil))
	explicit(httptest.NewRecorder(), httptest.NewRequest("GET", "/explicit", nil))

	var sb strings.Builder
	m.WriteMetrics(&sb)
	page := sb.String()
	for _, want := range []string{
		`mupod_http_requests_total{route="/implicit",method="GET",code="200"} 1`,
		`mupod_http_requests_total{route="/explicit",method="GET",code="418"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}
