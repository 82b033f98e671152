// Package search relates the output-layer numerical error σ_YŁ to
// classification accuracy and finds, by binary search (Sec. V-C), the
// largest σ_YŁ whose induced accuracy loss stays within the user's
// constraint. Two validation schemes from the paper are supported:
//
//   - Scheme 1 (equal_scheme): distribute the error budget equally,
//     ξ_K = 1/Ł, derive each Δ_XK from Eq. 7, inject uniform noise into
//     every analyzable layer simultaneously and measure accuracy.
//   - Scheme 2 (gaussian_approx): exploit that the output error is
//     approximately Gaussian (Fig. 3 right) and inject N(0, σ²) into
//     the logits only — much cheaper, one forward pass suffices.
package search

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/fault"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/obs"
	"mupod/internal/profile"
	"mupod/internal/rng"
	"mupod/internal/tensor"
)

// Scheme selects the σ→accuracy validation procedure.
type Scheme int

// The two schemes of Sec. V-C.
const (
	Scheme1Uniform Scheme = iota + 1
	Scheme2Gaussian
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Scheme1Uniform:
		return "equal_scheme"
	case Scheme2Gaussian:
		return "gaussian_approx"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Options controls the binary search.
type Options struct {
	Scheme  Scheme
	RelDrop float64 // relative top-1 accuracy loss constraint (e.g. 0.01)

	// EvalImages is the number of held-out images per accuracy
	// evaluation; the paper uses at least half the test set (default:
	// half of ds).
	EvalImages int
	// Repeats averages each accuracy evaluation over this many noise
	// realizations (default 1; Fig. 3 uses 3).
	Repeats int
	// Tol is the binary-search termination width (paper: 0.01).
	Tol float64
	// InitUpper is the initial σ upper-bound guess (paper: 1.0).
	InitUpper float64
	// BatchSize for evaluation forward passes (default 32).
	BatchSize int
	// Seed drives the injected noise.
	Seed uint64
	// Workers bounds the evaluation worker pool (0 = GOMAXPROCS, 1 =
	// sequential). Injection plans and noise streams are derived per
	// eval batch in batch order and correct counts are reduced in batch
	// order, so results are bit-identical at every worker count.
	Workers int
	// Kernel is the kernel policy of evaluation forward passes (zero
	// value = serial). Like Workers it never changes results, so caches
	// hash it out.
	Kernel kernels.Policy
}

func (o Options) withDefaults(ds *dataset.Dataset) Options {
	if o.Scheme == 0 {
		o.Scheme = Scheme1Uniform
	}
	if o.EvalImages == 0 {
		o.EvalImages = ds.Len() / 2
	}
	if o.EvalImages > ds.Len() {
		o.EvalImages = ds.Len()
	}
	if o.Repeats == 0 {
		o.Repeats = 1
	}
	if o.Tol == 0 {
		o.Tol = 0.01
	}
	if o.InitUpper == 0 {
		o.InitUpper = 1.0
	}
	if o.BatchSize == 0 {
		o.BatchSize = 32
	}
	return o
}

// Sentinel errors for the three ways the Sec. V-C constraint can be
// ill-posed. Callers branch with errors.Is; the wrapped messages carry
// the concrete numbers.
var (
	// ErrZeroConstraint reports a RelDrop ≤ 0: a zero accuracy-loss
	// budget admits no quantization noise at all, so there is no σ_YŁ
	// to search for.
	ErrZeroConstraint = errors.New("search: accuracy-loss constraint must be positive")
	// ErrUnattainable reports a constraint so tight that even the
	// smallest probed σ (the search tolerance) violates it; the search
	// refuses to return the σ=0 endpoint silently.
	ErrUnattainable = errors.New("search: accuracy-loss constraint unattainable")
	// ErrVacuous reports a constraint so loose that no σ violates it
	// even after 40 doublings of the upper bound; the search refuses to
	// return the max-iteration endpoint silently.
	ErrVacuous = errors.New("search: accuracy-loss constraint is vacuous")
)

// Result reports the found σ_YŁ and the search trace.
type Result struct {
	SigmaYL       float64 // largest σ_YŁ that satisfies the constraint
	ExactAccuracy float64 // noise-free accuracy on the eval subset
	TargetAcc     float64 // ExactAccuracy·(1−RelDrop)
	EvalImages    int     // evaluation subset size actually used
	Evaluations   int     // number of accuracy evaluations performed
	Trace         []Probe // every probed σ with its measured accuracy
}

// Probe is one accuracy evaluation at a candidate σ (tagged for the
// serving API's JSON trace).
type Probe struct {
	Sigma    float64 `json:"sigma"`
	Accuracy float64 `json:"accuracy"`
	Pass     bool    `json:"pass"`
}

// runner bundles the execution machinery one search (or one guard
// loop) reuses across its many accuracy evaluations: a replay plan, a
// worker pool, and one arena session per worker.
type runner struct {
	ev       *exec.Evaluator
	plan     *exec.Plan
	pol      kernels.Policy
	sessions []*exec.Session
}

func newRunner(net *nn.Network, workers int, pol kernels.Policy) *runner {
	ev := exec.NewEvaluator(workers)
	if pol.IntraWorkers == 0 {
		// Inter-item parallelism has priority; intra-op tiling spends
		// whatever cores the eval pool leaves idle.
		pol.IntraWorkers = kernels.IntraBudget(ev.Workers())
	}
	return &runner{
		ev:       ev,
		plan:     exec.NewPlan(net),
		pol:      pol,
		sessions: make([]*exec.Session, ev.Workers()),
	}
}

func (r *runner) session(worker int) *exec.Session {
	if r.sessions[worker] == nil {
		r.sessions[worker] = exec.NewSessionPolicy(r.plan, r.pol)
	}
	return r.sessions[worker]
}

// accuracy measures top-1 accuracy over the first n images, mapping
// eval batches across the worker pool. planFor (optional) supplies a
// per-batch injection plan — each plan must only be touched by its own
// batch, which keeps stateful (RNG-carrying) injectors race-free.
// noise (optional) perturbs a batch's logits in place before argmax
// (Scheme 2). Per-batch correct counts are summed in batch order, so
// the result is bit-identical at every worker count.
func (r *runner) accuracy(ctx context.Context, ds *dataset.Dataset, n, batchSize int, planFor func(batch int) map[int]nn.Injector, noise func(batch int, logits *tensor.Tensor)) (float64, error) {
	if n <= 0 || n > ds.Len() {
		n = ds.Len()
	}
	if batchSize <= 0 {
		batchSize = 32
	}
	nBatches := (n + batchSize - 1) / batchSize
	correct := make([]int, nBatches)
	err := r.ev.Map(ctx, nBatches, func(ctx context.Context, worker, b int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := b * batchSize
		size := batchSize
		if start+size > n {
			size = n - start
		}
		var plan map[int]nn.Injector
		if planFor != nil {
			plan = planFor(b)
		}
		logits := r.session(worker).ForwardInject(ds.Batch(start, size), plan)
		if noise != nil {
			noise(b, logits)
		}
		c := 0
		for i, p := range nn.Argmax(logits) {
			if p == ds.Labels[start+i] {
				c++
			}
		}
		correct[b] = c
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range correct {
		total += c
	}
	return float64(total) / float64(n), nil
}

// Accuracy measures top-1 accuracy of net over the first n images of ds
// with an optional per-node injection plan applied to every batch.
//
// The shared plan's injectors are invoked batch after batch on ONE
// goroutine (stateful RNG injectors stay sound), so this path is
// sequential; use AccuracyStateless for parallel evaluation with
// stateless (e.g. quantizing) injectors.
func Accuracy(net *nn.Network, ds *dataset.Dataset, n, batchSize int, inject map[int]nn.Injector) float64 {
	r := newRunner(net, 1, kernels.Policy{})
	planFor := func(int) map[int]nn.Injector { return inject }
	if len(inject) == 0 {
		planFor = nil
	}
	acc, _ := r.accuracy(context.Background(), ds, n, batchSize, planFor, nil)
	return acc
}

// AccuracyStateless is the parallel variant of Accuracy for injection
// plans whose injectors are pure functions of their input (quantizers,
// or nil for exact accuracy): batches are mapped across workers and
// may invoke the same injector concurrently. The result is
// bit-identical at every worker count.
func AccuracyStateless(ctx context.Context, workers int, net *nn.Network, ds *dataset.Dataset, n, batchSize int, inject map[int]nn.Injector) (float64, error) {
	return AccuracyStatelessOn(ctx, workers, kernels.Policy{}, net, ds, n, batchSize, inject)
}

// AccuracyStatelessOn is AccuracyStateless computing on the kernel
// backend named by pol — the policy-carrying variant the serving
// daemon's guard loop uses so validation runs the same backend the
// profile ran.
func AccuracyStatelessOn(ctx context.Context, workers int, pol kernels.Policy, net *nn.Network, ds *dataset.Dataset, n, batchSize int, inject map[int]nn.Injector) (float64, error) {
	r := newRunner(net, workers, pol)
	planFor := func(int) map[int]nn.Injector { return inject }
	if len(inject) == 0 {
		planFor = nil
	}
	return r.accuracy(ctx, ds, n, batchSize, planFor, nil)
}

// Scheme1Plan builds the equal-scheme injection plan for a given σ_YŁ:
// ξ_K = 1/Ł for every layer, Δ_XK from Eq. 7. Non-positive Δ (possible
// when θ_K < 0 at tiny budgets) injects nothing.
func Scheme1Plan(prof *profile.Profile, sigmaYL float64, r *rng.RNG) map[int]nn.Injector {
	xi := 1 / float64(prof.NumLayers())
	plan := make(map[int]nn.Injector, prof.NumLayers())
	for i := range prof.Layers {
		lp := &prof.Layers[i]
		delta := lp.DeltaFor(sigmaYL, xi)
		if delta <= 0 {
			continue
		}
		plan[lp.NodeID] = profile.UniformInjector(r.Split(), delta, false)
	}
	return plan
}

// XiPlan builds an injection plan for an arbitrary ξ assignment
// (indexed like prof.Layers). Used by the Fig. 3 corner-case study and
// by allocation validation.
func XiPlan(prof *profile.Profile, sigmaYL float64, xi []float64, r *rng.RNG) map[int]nn.Injector {
	if len(xi) != prof.NumLayers() {
		panic(fmt.Sprintf("search: ξ has %d entries for %d layers", len(xi), prof.NumLayers()))
	}
	plan := make(map[int]nn.Injector, prof.NumLayers())
	for i := range prof.Layers {
		lp := &prof.Layers[i]
		delta := lp.DeltaFor(sigmaYL, xi[i])
		if delta <= 0 {
			continue
		}
		plan[lp.NodeID] = profile.UniformInjector(r.Split(), delta, false)
	}
	return plan
}

// EvaluateSigma measures the accuracy at a candidate σ_YŁ under the
// chosen scheme, averaged over opts.Repeats noise realizations.
//
// Scheme 1 derives an independent injection plan per eval batch and
// Scheme 2 an independent Gaussian stream per eval batch — pre-split
// in batch order — so batches evaluate concurrently (opts.Workers)
// with results bit-identical at every worker count.
func EvaluateSigma(net *nn.Network, prof *profile.Profile, ds *dataset.Dataset, sigma float64, opts Options) float64 {
	opts = opts.withDefaults(ds)
	acc, err := evaluateSigma(context.Background(), newRunner(net, opts.Workers, opts.Kernel), net, prof, ds, sigma, opts)
	if err != nil {
		panic(fmt.Sprintf("search: %v", err)) // unreachable without ctx cancellation
	}
	return acc
}

// evaluateSigma is EvaluateSigma against a caller-owned runner, so a
// binary search reuses one plan and one set of arena sessions across
// all its probes. opts must already be normalized.
func evaluateSigma(ctx context.Context, rn *runner, net *nn.Network, prof *profile.Profile, ds *dataset.Dataset, sigma float64, opts Options) (float64, error) {
	r := rng.New(opts.Seed ^ math.Float64bits(sigma))
	n := opts.EvalImages
	if n <= 0 || n > ds.Len() {
		n = ds.Len()
	}
	nBatches := (n + opts.BatchSize - 1) / opts.BatchSize
	total := 0.0
	for rep := 0; rep < opts.Repeats; rep++ {
		var acc float64
		var err error
		switch opts.Scheme {
		case Scheme1Uniform:
			// One independent plan per batch, derived sequentially so
			// the noise streams are the same regardless of scheduling.
			plans := make([]map[int]nn.Injector, nBatches)
			for b := range plans {
				plans[b] = Scheme1Plan(prof, sigma, r)
			}
			acc, err = rn.accuracy(ctx, ds, n, opts.BatchSize, func(b int) map[int]nn.Injector { return plans[b] }, nil)
		case Scheme2Gaussian:
			streams := make([]*rng.RNG, nBatches)
			for b := range streams {
				streams[b] = r.Split()
			}
			acc, err = rn.accuracy(ctx, ds, n, opts.BatchSize, nil, func(b int, logits *tensor.Tensor) {
				rb := streams[b]
				for i := range logits.Data {
					logits.Data[i] += rb.NormalScaled(0, sigma)
				}
			})
		default:
			panic(fmt.Sprintf("search: unknown scheme %v", opts.Scheme))
		}
		if err != nil {
			return 0, err
		}
		total += acc
	}
	return total / float64(opts.Repeats), nil
}

// Run performs the Sec. V-C procedure: establish the exact accuracy,
// grow the upper bound until it violates the constraint (doubling from
// InitUpper), then binary-search σ_YŁ to within Tol. The returned
// σ satisfies the constraint; σ+Tol does not (up to evaluation noise).
func Run(net *nn.Network, prof *profile.Profile, ds *dataset.Dataset, opts Options) (*Result, error) {
	return RunContext(context.Background(), net, prof, ds, opts)
}

// RunContext is Run with cancellation: ctx is checked before every
// accuracy evaluation, so a long binary search aborts promptly when the
// caller cancels (the serving daemon relies on this).
func RunContext(ctx context.Context, net *nn.Network, prof *profile.Profile, ds *dataset.Dataset, opts Options) (*Result, error) {
	opts = opts.withDefaults(ds)
	if opts.RelDrop <= 0 {
		return nil, fmt.Errorf("%w: RelDrop=%g", ErrZeroConstraint, opts.RelDrop)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	ctx, ssp := obs.Start(ctx, "search",
		obs.KV("scheme", int(opts.Scheme)), obs.KV("rel_drop", opts.RelDrop),
		obs.KV("eval_images", opts.EvalImages), obs.KV("tol", opts.Tol))
	defer ssp.End()
	rn := newRunner(net, opts.Workers, opts.Kernel)
	_, esp := obs.Start(ctx, "search.exact")
	exact, err := rn.accuracy(ctx, ds, opts.EvalImages, opts.BatchSize, nil, nil)
	esp.End()
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	res := &Result{
		ExactAccuracy: exact,
		EvalImages:    opts.EvalImages,
	}
	res.TargetAcc = res.ExactAccuracy * (1 - opts.RelDrop)

	probe := func(sigma float64) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("search: %w", err)
		}
		if err := fault.Hit(ctx, "search.probe"); err != nil {
			return false, fmt.Errorf("search: %w", err)
		}
		pctx, psp := obs.Start(ctx, "search.probe", obs.KV("sigma", sigma))
		acc, err := evaluateSigma(pctx, rn, net, prof, ds, sigma, opts)
		if err != nil {
			psp.End()
			return false, fmt.Errorf("search: %w", err)
		}
		res.Evaluations++
		pass := acc >= res.TargetAcc
		psp.SetAttr("accuracy", acc)
		psp.SetAttr("pass", pass)
		psp.End()
		res.Trace = append(res.Trace, Probe{Sigma: sigma, Accuracy: acc, Pass: pass})
		return pass, nil
	}

	// Find a violated upper bound, doubling from the initial guess.
	lo, hi := 0.0, opts.InitUpper
	for i := 0; ; i++ {
		pass, err := probe(hi)
		if err != nil {
			return nil, err
		}
		if !pass {
			break
		}
		lo = hi
		hi *= 2
		if i > 40 {
			return nil, fmt.Errorf("%w: accuracy never violated up to σ=%g", ErrVacuous, hi)
		}
	}
	// Standard binary search on the real line.
	for hi-lo > opts.Tol {
		mid := (lo + hi) / 2
		pass, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	res.SigmaYL = lo
	if lo == 0 {
		return nil, fmt.Errorf("%w: even σ=%g violates the %g relative-drop constraint", ErrUnattainable, hi, opts.RelDrop)
	}
	return res, nil
}
