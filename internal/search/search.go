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
//     the logits only — much cheaper: the exact logits are computed
//     once per search, and every probe only perturbs them.
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

// Validate reports a setting no search can use: an unknown scheme, a
// negative count, a Tol or InitUpper that is negative or not finite
// (zero picks the default), or an invalid kernel policy. It needs no
// network or data, so a server can reject a job when it is submitted.
// The accuracy constraint RelDrop is checked by RunContext
// (ErrZeroConstraint).
func (o Options) Validate() error {
	switch {
	case o.Scheme < 0 || o.Scheme > Scheme2Gaussian:
		return fmt.Errorf("unknown scheme %d (want 1 or 2)", int(o.Scheme))
	case o.EvalImages < 0 || o.Repeats < 0 || o.BatchSize < 0:
		return fmt.Errorf("eval images %d, repeats %d and batch size %d must not be negative", o.EvalImages, o.Repeats, o.BatchSize)
	case !(o.Tol >= 0 && o.Tol < math.Inf(1)):
		return fmt.Errorf("tolerance %g must be a finite non-negative number", o.Tol)
	case !(o.InitUpper >= 0 && o.InitUpper < math.Inf(1)):
		return fmt.Errorf("initial upper bound %g must be a finite non-negative number", o.InitUpper)
	}
	return o.Kernel.Validate()
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

// Scheme1Plan builds the equal-scheme injection plan for a given σ_YŁ:
// XiPlan with ξ_K = 1/Ł for every layer.
func Scheme1Plan(prof *profile.Profile, sigmaYL float64, r *rng.RNG) map[int]nn.Injector {
	xi := make([]float64, prof.NumLayers())
	for k := range xi {
		xi[k] = 1 / float64(len(xi))
	}
	return XiPlan(prof, sigmaYL, xi, r)
}

// XiPlan builds an injection plan for an arbitrary ξ assignment
// (indexed like prof.Layers): Δ_XK from Eq. 7, one noise stream split
// from r per injected layer in layer order. Non-positive Δ (possible
// when θ_K < 0 at tiny budgets) injects nothing. Used by Scheme 1, the
// Fig. 3 corner-case study and allocation validation.
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

// EvaluateSigmas measures the accuracy at each candidate σ_YŁ in
// sigmas under the chosen scheme, averaged over opts.Repeats noise
// realizations, on one evaluation pool. Each σ seeds its own noise
// stream from opts.Seed and the bits of σ, so its value does not
// depend on the other σs in the call.
//
// Scheme 1 derives an independent injection plan per eval batch,
// pre-split in batch order, so batches evaluate concurrently
// (opts.Workers) with results bit-identical at every worker count.
// Scheme 2 runs the exact forward pass the same way once for all σs,
// then perturbs each batch's logits with its own Gaussian stream,
// split in batch order.
func EvaluateSigmas(net *nn.Network, prof *profile.Profile, ds *dataset.Dataset, sigmas []float64, opts Options) []float64 {
	opts = opts.withDefaults(ds)
	ctx := context.Background()
	pool := exec.NewPool(net, opts.Workers, opts.Kernel)
	var logits []*tensor.Tensor
	var err error
	if opts.Scheme == Scheme2Gaussian {
		_, logits, err = exactPass(ctx, pool, ds, opts)
	}
	accs := make([]float64, len(sigmas))
	for i := 0; i < len(sigmas) && err == nil; i++ {
		accs[i], err = evaluateSigma(ctx, pool, prof, ds, sigmas[i], opts, logits)
	}
	if err != nil {
		panic(fmt.Sprintf("search: %v", err)) // unreachable without ctx cancellation
	}
	return accs
}

// exactPass measures the noise-free accuracy on the eval subset. Under
// Scheme 2 it also returns every eval batch's exact logits, which each
// probe perturbs in place of a forward pass of its own. opts must
// already be normalized.
func exactPass(ctx context.Context, pool *exec.Pool, ds *dataset.Dataset, opts Options) (float64, []*tensor.Tensor, error) {
	if opts.Scheme != Scheme2Gaussian {
		acc, err := pool.Accuracy(ctx, ds, opts.EvalImages, opts.BatchSize, nil, nil)
		return acc, nil, err
	}
	logits := make([]*tensor.Tensor, (evalImages(ds, opts)+opts.BatchSize-1)/opts.BatchSize)
	acc, err := pool.Accuracy(ctx, ds, opts.EvalImages, opts.BatchSize, nil,
		func(b int, l *tensor.Tensor) { logits[b] = l.Clone() })
	return acc, logits, err
}

// evalImages is the eval subset size Pool.Accuracy uses for opts.
func evalImages(ds *dataset.Dataset, opts Options) int {
	if n := opts.EvalImages; n > 0 && n <= ds.Len() {
		return n
	}
	return ds.Len()
}

// evaluateSigma measures one σ on a caller-owned pool, so a binary
// search or an EvaluateSigmas call reuses one plan and one set of
// arena sessions across all its probes. Scheme 2 perturbs logits, the
// exact logits exactPass kept for each eval batch, and runs no forward
// pass. opts must already be normalized.
func evaluateSigma(ctx context.Context, pool *exec.Pool, prof *profile.Profile, ds *dataset.Dataset,
	sigma float64, opts Options, logits []*tensor.Tensor) (float64, error) {
	r := rng.New(opts.Seed ^ math.Float64bits(sigma))
	n := evalImages(ds, opts)
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
			acc, err = pool.Accuracy(ctx, ds, n, opts.BatchSize, func(b int) map[int]nn.Injector { return plans[b] }, nil)
		case Scheme2Gaussian:
			hits := 0
			for b, exact := range logits {
				rb := r.Split()
				noisy := exact.Clone()
				for i := range noisy.Data {
					noisy.Data[i] += rb.NormalScaled(0, sigma)
				}
				start := b * opts.BatchSize
				hits += exec.Hits(noisy, ds.Labels[start:start+noisy.Shape[0]])
			}
			acc = float64(hits) / float64(n)
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
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
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
	pool := exec.NewPool(net, opts.Workers, opts.Kernel)
	_, esp := obs.Start(ctx, "search.exact")
	exact, logits, err := exactPass(ctx, pool, ds, opts)
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
		acc, err := evaluateSigma(pctx, pool, prof, ds, sigma, opts, logits)
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
	// Standard binary search on the real line. It also stops once lo
	// and hi are adjacent floats, which a Tol below their spacing never
	// reaches.
	for hi-lo > opts.Tol {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
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
