package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mupod/internal/obs"
)

// Evaluator maps a deterministic work list across a bounded worker
// pool. Determinism is the caller's half of the contract: pre-split
// any RNG streams per work item (in the order sequential code would
// consume them), write each item's result into a per-index slot, and
// reduce slots in index order. The Evaluator's half: every item runs
// exactly once, workers observe context cancellation promptly, and
// when items fail the error reported is the one with the LOWEST item
// index — independent of scheduling.
type Evaluator struct {
	workers int
}

// NewEvaluator creates an evaluator with the given concurrency;
// workers <= 0 selects GOMAXPROCS.
func NewEvaluator(workers int) *Evaluator {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Evaluator{workers: workers}
}

// Workers returns the configured concurrency.
func (e *Evaluator) Workers() int { return e.workers }

// Map runs fn(ctx, worker, i) for every i in [0, n). worker is a
// stable index in [0, Workers()) identifying the executing goroutine,
// so callers can keep one Session (or other single-goroutine state)
// per worker. With one worker (or one item) everything runs inline on
// the calling goroutine.
//
// On failure Map cancels the remaining work and returns the error of
// the lowest-indexed failing item; if the parent context is cancelled
// before any item fails, the context error is returned. An item that
// panics on one of Map's own goroutines fails with the panic value and
// its stack as its error; inline items panic on the caller's goroutine
// as usual.
func (e *Evaluator) Map(ctx context.Context, n int, fn func(ctx context.Context, worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	// Telemetry state is resolved once per Map, not per item; with
	// metrics detached and no tracer on ctx the item loops call fn
	// directly, so the disabled cost is one boolean test per item.
	m := loadMetrics()
	traced := obs.Enabled(ctx)
	instrumented := m != nil || traced
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			var err error
			if instrumented {
				err = runItem(ctx, m, traced, 0, i, fn)
			} else {
				err = fn(ctx, 0, i)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var i int
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("exec: item %d panicked: %v\n%s", i, r, debug.Stack())
					cancel()
				}
			}()
			for {
				i = int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if wctx.Err() != nil {
					return
				}
				var err error
				if instrumented {
					err = runItem(wctx, m, traced, worker, i, fn)
				} else {
					err = fn(wctx, worker, i)
				}
				if err != nil {
					// Cancellations our own cancel() induced are
					// secondary — don't let them shadow the real
					// failure in the index-order scan below.
					if !errors.Is(err, context.Canceled) || ctx.Err() != nil {
						errs[i] = err
					}
					cancel() // stop handing out new work
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// runItem executes one work item with the telemetry wrapper: an
// "exec.item" span on the worker's trace lane (worker+2, lane 1 is the
// coordinating goroutine) and item/busy counters. Only called when
// instrumentation is active. Telemetry only observes — results and
// their reduction order are untouched, so parallel runs stay
// bit-identical with tracing on or off.
func runItem(ctx context.Context, m *Metrics, traced bool, worker, i int, fn func(ctx context.Context, worker, i int) error) error {
	ictx := ctx
	var sp *obs.Span
	if traced {
		ictx, sp = obs.Start(ctx, "exec.item", obs.KV("i", i), obs.KV("worker", worker))
		sp.SetTID(worker + 2)
	}
	start := time.Now()
	err := fn(ictx, worker, i)
	if m != nil {
		m.EvalItems.Add(1)
		m.EvalBusy.Add(time.Since(start).Seconds())
	}
	sp.End()
	return err
}
