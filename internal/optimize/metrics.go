package optimize

import (
	"sync/atomic"

	"mupod/internal/obs"
)

// solverMetrics exports the step counts already tracked in Stats as
// process counters.
type solverMetrics struct {
	iters, solves *obs.Counter
}

var solverMetricsPtr atomic.Pointer[solverMetrics]

// EnableMetrics registers the ξ-solver counters on r and makes them the
// process-wide active set (last call wins). Like the exec hooks, the
// disabled cost is one atomic load and a branch per solve.
func EnableMetrics(r *obs.Registry) {
	solverMetricsPtr.Store(&solverMetrics{
		iters:  r.Counter("mupod_solver_iterations_total", "ξ-solver bisection steps executed."),
		solves: r.Counter("mupod_solver_solves_total", "ξ-solve invocations."),
	})
}

// DisableMetrics detaches the active counter set.
func DisableMetrics() { solverMetricsPtr.Store(nil) }

// countSolve publishes one finished solve's stats.
func countSolve(st *Stats) {
	m := solverMetricsPtr.Load()
	if m == nil {
		return
	}
	m.iters.Add(uint64(st.Iterations))
	m.solves.Inc()
}
