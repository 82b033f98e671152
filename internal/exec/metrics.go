package exec

import (
	"sync/atomic"

	"mupod/internal/obs"
)

// Metrics is the execution-engine counter set. The engine holds it via
// a process-wide atomic pointer: when nil (the default) every hot-path
// hook reduces to one atomic load and a branch, so disabled telemetry
// costs the replay path nothing measurable; see BenchmarkObsDisabled.
type Metrics struct {
	// Forwards counts network passes (full forwards, injected
	// forwards and suffix replays) executed by Sessions.
	Forwards *obs.Counter
	// ArenaReuses / ArenaAllocs split activation-arena buffer requests
	// into pool hits and (re)allocations — a healthy steady state is
	// almost all reuses.
	ArenaReuses *obs.Counter
	ArenaAllocs *obs.Counter
	// EvalItems counts work items executed by Evaluator.Map.
	EvalItems *obs.Counter
	// EvalBusy accumulates wall-clock seconds workers spent inside
	// items; rate(EvalBusy)/workers is pool utilization.
	EvalBusy *obs.FloatCounter
}

var metricsPtr atomic.Pointer[Metrics]

// EnableMetrics registers the engine's counters on r and makes them the
// process-wide active set (last call wins), returning it. Disable again
// with DisableMetrics.
func EnableMetrics(r *obs.Registry) *Metrics {
	m := &Metrics{
		Forwards:    r.Counter("mupod_exec_forwards_total", "Network passes (full forwards and suffix replays) executed by exec sessions."),
		ArenaReuses: r.Counter("mupod_exec_arena_reuses_total", "Activation-arena buffer reuses on the session hot path."),
		ArenaAllocs: r.Counter("mupod_exec_arena_allocs_total", "Activation-arena buffer (re)allocations."),
		EvalItems:   r.Counter("mupod_exec_evaluator_items_total", "Work items executed by exec evaluator pools."),
		EvalBusy:    r.FloatCounter("mupod_exec_evaluator_busy_seconds_total", "Cumulative seconds evaluator workers spent executing items."),
	}
	metricsPtr.Store(m)
	return m
}

// DisableMetrics detaches the active counter set; hooks return to their
// disabled (load+branch) cost.
func DisableMetrics() { metricsPtr.Store(nil) }

func loadMetrics() *Metrics { return metricsPtr.Load() }
