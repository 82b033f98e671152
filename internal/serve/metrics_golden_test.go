package serve

import (
	"strings"
	"testing"
)

// oldMetricsPage is the exact /metrics output of a fresh Manager
// (Workers: 2) as rendered by the pre-obs hand-rolled exposition code.
// The obs.Registry migration must keep every pre-existing family, label
// set and value format byte-identical; new families (build info, exec,
// solver) may only be appended after this block.
const oldMetricsPage = `# HELP mupod_jobs_submitted_total Jobs accepted into the queue.
# TYPE mupod_jobs_submitted_total counter
mupod_jobs_submitted_total 0
# HELP mupod_jobs_rejected_total Submissions rejected (queue full or draining).
# TYPE mupod_jobs_rejected_total counter
mupod_jobs_rejected_total 0
# HELP mupod_jobs_completed_total Jobs finished, by terminal state.
# TYPE mupod_jobs_completed_total counter
mupod_jobs_completed_total{state="done"} 0
mupod_jobs_completed_total{state="failed"} 0
mupod_jobs_completed_total{state="cancelled"} 0
# HELP mupod_profile_cache_hits_total Profiling runs served from the content-addressed cache.
# TYPE mupod_profile_cache_hits_total counter
mupod_profile_cache_hits_total 0
# HELP mupod_profile_cache_misses_total Profiling runs computed from scratch.
# TYPE mupod_profile_cache_misses_total counter
mupod_profile_cache_misses_total 0
# HELP mupod_stage_latency_seconds Per-stage pipeline latency.
# TYPE mupod_stage_latency_seconds histogram
mupod_stage_latency_seconds_bucket{stage="resolve",le="0.0001"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="0.0005"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="0.001"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="0.005"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="0.01"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="0.025"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="0.05"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="0.1"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="0.25"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="0.5"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="1"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="2.5"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="5"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="10"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="30"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="60"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="120"} 0
mupod_stage_latency_seconds_bucket{stage="resolve",le="+Inf"} 0
mupod_stage_latency_seconds_sum{stage="resolve"} 0
mupod_stage_latency_seconds_count{stage="resolve"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="0.0001"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="0.0005"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="0.001"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="0.005"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="0.01"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="0.025"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="0.05"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="0.1"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="0.25"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="0.5"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="1"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="2.5"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="5"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="10"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="30"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="60"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="120"} 0
mupod_stage_latency_seconds_bucket{stage="profile",le="+Inf"} 0
mupod_stage_latency_seconds_sum{stage="profile"} 0
mupod_stage_latency_seconds_count{stage="profile"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="0.0001"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="0.0005"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="0.001"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="0.005"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="0.01"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="0.025"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="0.05"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="0.1"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="0.25"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="0.5"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="1"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="2.5"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="5"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="10"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="30"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="60"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="120"} 0
mupod_stage_latency_seconds_bucket{stage="search",le="+Inf"} 0
mupod_stage_latency_seconds_sum{stage="search"} 0
mupod_stage_latency_seconds_count{stage="search"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="0.0001"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="0.0005"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="0.001"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="0.005"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="0.01"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="0.025"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="0.05"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="0.1"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="0.25"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="0.5"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="1"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="2.5"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="5"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="10"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="30"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="60"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="120"} 0
mupod_stage_latency_seconds_bucket{stage="solve",le="+Inf"} 0
mupod_stage_latency_seconds_sum{stage="solve"} 0
mupod_stage_latency_seconds_count{stage="solve"} 0
# HELP mupod_jobs Jobs currently known, by state.
# TYPE mupod_jobs gauge
mupod_jobs{state="queued"} 0
mupod_jobs{state="running"} 0
mupod_jobs{state="done"} 0
mupod_jobs{state="failed"} 0
mupod_jobs{state="cancelled"} 0
mupod_jobs{state="interrupted"} 0
# HELP mupod_queue_depth Jobs waiting for a worker.
# TYPE mupod_queue_depth gauge
mupod_queue_depth 0
# HELP mupod_workers Configured worker pool size.
# TYPE mupod_workers gauge
mupod_workers 2
# HELP mupod_profile_cache_entries Profiles currently cached.
# TYPE mupod_profile_cache_entries gauge
mupod_profile_cache_entries 0
`

func TestMetricsGolden(t *testing.T) {
	m, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(t.Context())
	var sb strings.Builder
	m.WriteMetrics(&sb)
	got := sb.String()
	if !strings.HasPrefix(got, oldMetricsPage) {
		// Find the first diverging line for a readable failure.
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(oldMetricsPage, "\n")
		for i := range wantLines {
			g := "<missing>"
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if g != wantLines[i] {
				t.Fatalf("metrics output diverges from the pre-obs layout at line %d:\n got: %q\nwant: %q", i+1, g, wantLines[i])
			}
		}
		t.Fatal("metrics output diverges from the pre-obs layout")
	}
	for _, fam := range []string{
		"mupod_profile_cache_bytes 0",
		"mupod_build_info{go_version=",
		"mupod_exec_forwards_total",
		"mupod_exec_arena_reuses_total",
		"mupod_exec_arena_allocs_total",
		"mupod_exec_evaluator_items_total",
		"mupod_exec_evaluator_busy_seconds_total",
		// One solver, so unlabelled series: the name at a line start.
		"\nmupod_solver_iterations_total ",
		"\nmupod_solver_solves_total ",
		"mupod_job_retries_total 0",
		"mupod_jobs_shed_total 0",
		`mupod_jobs_recovered_total{disposition="requeued"} 0`,
		`mupod_jobs_recovered_total{disposition="failed"} 0`,
		"mupod_breaker_opens_total 0",
		"mupod_breaker_state 0",
		"mupod_go_goroutines",
		"mupod_go_heap_bytes",
		"mupod_go_gc_pause_seconds",
	} {
		if !strings.Contains(got, fam) {
			t.Errorf("new family %q missing from /metrics", fam)
		}
	}
}
