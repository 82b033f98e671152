package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mupod/internal/core"
	"mupod/internal/kernels"
	"mupod/internal/obs"
	"mupod/internal/profile"
	"mupod/internal/search"
)

// State is a job's position in its lifecycle. Transitions:
//
//	queued → running → done | failed | cancelled
//	queued → cancelled              (cancelled before a worker picked it up)
//	running → interrupted           (transient failure awaiting retry, or
//	                                 the daemon crashed mid-run)
//	interrupted → queued | failed | cancelled
type State string

// The job states reported by the API.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	// StateInterrupted is a non-terminal parking state: the job's last
	// run ended early (transient stage failure, or the daemon was killed
	// while it ran) and it is waiting to be re-queued for another
	// attempt.
	StateInterrupted State = "interrupted"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCancelled   State = "cancelled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobRequest is the body of POST /v1/jobs: a network (a model-zoo name
// or an inline netdesc description) plus the pipeline tunables. JSON
// field matching is case-insensitive, so the nested configs accept
// lowercase keys ({"profile":{"images":30}}).
type JobRequest struct {
	// Tenant attributes the job for quota accounting and weighted-fair
	// scheduling ("" = the default tenant). The HTTP layer also accepts
	// it via the X-Mupod-Tenant header. Tenancy never affects results:
	// the profile and front caches are content-addressed and shared.
	Tenant string `json:"tenant,omitempty"`

	// Model names a model-zoo architecture (alexnet, nin, ...).
	// Exactly one of Model and Network must be set.
	Model string `json:"model,omitempty"`
	// Network is an inline netdesc-format description. The daemon
	// trains it for TrainSteps steps on a synthetic split generated
	// from Seed before optimizing.
	Network    string `json:"network,omitempty"`
	TrainSteps int    `json:"train_steps,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`

	// Objective is "input" (bandwidth, default), "mac" (energy), or
	// "custom" (per-layer ρ weights in Rho).
	Objective string    `json:"objective,omitempty"`
	Rho       []float64 `json:"rho,omitempty"`

	Profile profile.Config `json:"profile,omitempty"`
	Search  search.Options `json:"search,omitempty"`

	// Workers is the evaluation parallelism of this job's profiling and
	// search stages (0 = the manager's per-job default, which divides
	// GOMAXPROCS across the queue workers). Results are bit-identical at
	// any worker count, so this only trades latency for CPU.
	Workers int `json:"workers,omitempty"`

	// Kernel is the kernel policy of this job's forward passes:
	// "blocked" (serial) or "parallel" ("" = the daemon's default).
	// IntraWorkers bounds the goroutines "parallel" spends inside one
	// layer (0 = automatic). Stage-level policies in Profile.Kernel /
	// Search.Kernel take precedence when set. Like Workers, these never
	// change results, so they never split a cache or a route.
	Kernel       string `json:"kernel,omitempty"`
	IntraWorkers int    `json:"intra_workers,omitempty"`

	DeltaFloor      float64 `json:"delta_floor,omitempty"`
	Guard           bool    `json:"guard,omitempty"`
	GuardShrink     float64 `json:"guard_shrink,omitempty"`
	GuardMaxRetries int     `json:"guard_max_retries,omitempty"`

	// Pareto, when set, turns the job into a Pareto-front job: instead
	// of the single-objective ξ solve, the pipeline runs the α-sweep
	// (and optionally NSGA-II) after the σ search and attaches the
	// front to the result. POST /pareto sets this implicitly.
	Pareto *ParetoSpec `json:"pareto,omitempty"`
}

// TenantName resolves the request's tenant, mapping "" to
// DefaultTenant so every job is accounted somewhere.
func (r *JobRequest) TenantName() string {
	if r.Tenant == "" {
		return DefaultTenant
	}
	return r.Tenant
}

// Validate checks the request without resolving the network, so a
// setting no stage can use is a 400 at submit, not a failed job.
func (r *JobRequest) Validate() error {
	if err := ValidTenant(r.Tenant); err != nil {
		return err
	}
	if (r.Model == "") == (r.Network == "") {
		return fmt.Errorf("exactly one of model and network must be set")
	}
	if _, err := r.objective(); err != nil {
		return err
	}
	if r.Pareto != nil {
		if err := r.Pareto.Validate(); err != nil {
			return err
		}
	}
	if err := r.Profile.Validate(); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	if err := r.Search.Validate(); err != nil {
		return fmt.Errorf("search: %w", err)
	}
	return r.kernelPolicy().Validate()
}

// kernelPolicy bundles the request's job-level kernel knobs.
func (r *JobRequest) kernelPolicy() kernels.Policy {
	return kernels.Policy{Impl: r.Kernel, IntraWorkers: r.IntraWorkers}
}

func (r *JobRequest) objective() (core.Objective, error) {
	switch r.Objective {
	case "", "input":
		return core.MinimizeInputBits, nil
	case "mac":
		return core.MinimizeMACBits, nil
	case "custom":
		if len(r.Rho) == 0 {
			return 0, fmt.Errorf("objective %q needs rho weights", r.Objective)
		}
		return core.CustomRho, nil
	default:
		return 0, fmt.Errorf("unknown objective %q (want input, mac or custom)", r.Objective)
	}
}

// coreConfig maps the request onto the pipeline's configuration.
func (r *JobRequest) coreConfig() (core.Config, error) {
	obj, err := r.objective()
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Profile:         r.Profile.Normalized(),
		Search:          r.Search,
		Objective:       obj,
		Rho:             r.Rho,
		DeltaFloor:      r.DeltaFloor,
		Guard:           r.Guard,
		GuardShrink:     r.GuardShrink,
		GuardMaxRetries: r.GuardMaxRetries,
		Workers:         r.Workers,
		Kernel:          r.kernelPolicy(),
	}, nil
}

// TimelineEntry is one step of a job's stage timeline: a lifecycle
// transition (queued, running, interrupted, done, failed, cancelled) or
// a pipeline stage completing (resolve, profile, search, solve,
// pareto). SinceMS is the wall time since the previous entry — for
// "running", the queue wait; for a stage-completion entry, the stage's
// duration, the same value as the stage's JobResult *_ms field and its
// latency-histogram observation. The sequence is recorded live,
// journaled, and reconstructed on crash replay, so GET /v1/jobs/{id}
// answers "where did this job's latency go" even across a daemon
// restart.
type TimelineEntry struct {
	Event   string    `json:"event"`
	At      time.Time `json:"at"`
	SinceMS float64   `json:"since_prev_ms"`
}

// appendTimeline extends tl with one event, deriving SinceMS from the
// previous entry.
func appendTimeline(tl []TimelineEntry, event string, at time.Time) []TimelineEntry {
	return append(tl, TimelineEntry{Event: event, At: at, SinceMS: millis(sincePrev(tl, at))})
}

// sincePrev is the wall time from tl's latest entry to at (0 for the
// first entry, and for out-of-order clock reads).
func sincePrev(tl []TimelineEntry, at time.Time) time.Duration {
	if n := len(tl); n > 0 {
		if d := at.Sub(tl[n-1].At); d > 0 {
			return d
		}
	}
	return 0
}

// millis converts a duration to the float milliseconds the job view
// reports.
func millis(d time.Duration) float64 { return 1000 * d.Seconds() }

// LayerResult is one layer of a finished allocation.
type LayerResult struct {
	Name     string  `json:"name"`
	Xi       float64 `json:"xi"`
	Delta    float64 `json:"delta"`
	Format   string  `json:"format"`
	IntBits  int     `json:"int_bits"`
	FracBits int     `json:"frac_bits"`
	Bits     int     `json:"bits"`
	Inputs   int     `json:"inputs"`
	MACs     int     `json:"macs"`
}

// JobResult is the payload of a job that reached StateDone.
type JobResult struct {
	NetName            string         `json:"net_name"`
	Objective          string         `json:"objective"`
	SigmaYL            float64        `json:"sigma_yl"`
	GuardedSigma       float64        `json:"guarded_sigma"`
	GuardRetries       int            `json:"guard_retries"`
	ExactAccuracy      float64        `json:"exact_accuracy"`
	TargetAccuracy     float64        `json:"target_accuracy"`
	Evaluations        int            `json:"evaluations"`
	Trace              []search.Probe `json:"trace"`
	Layers             []LayerResult  `json:"layers"`
	Bits               []int          `json:"bits"`
	EffectiveInputBits float64        `json:"effective_input_bits"`
	EffectiveMACBits   float64        `json:"effective_mac_bits"`
	ProfileCacheHit    bool           `json:"profile_cache_hit"`
	ResolveMS          float64        `json:"resolve_ms"`
	ProfileMS          float64        `json:"profile_ms"`
	SearchMS           float64        `json:"search_ms"`
	SolveMS            float64        `json:"solve_ms"`

	// Pareto carries the front of a Pareto-front job (nil otherwise).
	// ParetoMS is that stage's latency; SolveMS stays 0 for these jobs.
	Pareto   *ParetoResult `json:"pareto,omitempty"`
	ParetoMS float64       `json:"pareto_ms,omitempty"`
}

// Job is one submitted optimization request moving through the queue.
// All mutable fields are guarded by mu; ctx/cancel/done are set once at
// construction.
type Job struct {
	id  string
	req JobRequest

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	state     State
	err       string
	cacheHit  bool
	result    *JobResult
	tracer    *obs.Tracer
	submitted time.Time
	started   time.Time
	finished  time.Time
	// attempt counts runs started (including one cut short by a crash
	// the manager recovered from); retryWait marks an interrupted job
	// whose re-queue is owned by a backoff goroutine rather than the
	// queue channel.
	attempt   int
	retryWait bool
	timeline  []TimelineEntry
}

// mark returns the wall time from the job's latest timeline entry to
// at and, when record is set, appends event at that time with that
// duration as its SinceMS.
func (j *Job) mark(event string, at time.Time, record bool) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	d := sincePrev(j.timeline, at)
	if record {
		j.timeline = append(j.timeline, TimelineEntry{Event: event, At: at, SinceMS: millis(d)})
	}
	return d
}

// Timeline returns a copy of the stage timeline recorded so far.
func (j *Job) Timeline() []TimelineEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]TimelineEntry(nil), j.timeline...)
}

// Tracer returns the job's span buffer, or nil when per-job tracing is
// disabled or the job has not started. The buffer is complete once the
// job reaches a terminal state (the /debug/trace endpoint gates on
// that).
func (j *Job) Tracer() *obs.Tracer {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tracer
}

func (j *Job) setTracer(tr *obs.Tracer) {
	j.mu.Lock()
	j.tracer = tr
	j.mu.Unlock()
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// TenantName returns the tenant the job is accounted to. The request is
// immutable after submission, so no lock is needed.
func (j *Job) TenantName() string { return j.req.TenantName() }

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the job's result, or nil unless the state is done.
func (j *Job) Result() *JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Err returns the failure message, or "" unless the state is failed.
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Attempt returns how many runs of this job have started.
func (j *Job) Attempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempt
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// JobView is the JSON snapshot of a job returned by the API.
type JobView struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant,omitempty"`
	State     State           `json:"state"`
	Error     string          `json:"error,omitempty"`
	CacheHit  bool            `json:"cache_hit"`
	Attempt   int             `json:"attempt,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Timeline  []TimelineEntry `json:"timeline,omitempty"`
	Result    *JobResult      `json:"result,omitempty"`
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		Tenant:    j.req.Tenant,
		State:     j.state,
		Error:     j.err,
		CacheHit:  j.cacheHit,
		Attempt:   j.attempt,
		Submitted: j.submitted,
		Timeline:  append([]TimelineEntry(nil), j.timeline...),
		Result:    j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}
