// Package core ties the substrates into the paper's end-to-end
// precision-optimization pipeline (the primary contribution):
//
//  1. profile the per-layer error-propagation constants λ_K, θ_K
//     (internal/profile, Sec. V-A / Eq. 5),
//  2. binary-search the output error budget σ_YŁ that meets the user's
//     accuracy constraint (internal/search, Sec. V-C),
//  3. optimize the budget decomposition ξ for a resource objective
//     (internal/optimize, Sec. V-D / Eq. 8), and
//  4. translate each Δ_XK into a concrete fixed-point format I.F and
//     validate the result with REAL quantized inference.
package core

import (
	"context"
	"fmt"
	"time"

	"mupod/internal/dataset"
	"mupod/internal/energy"
	"mupod/internal/exec"
	"mupod/internal/fault"
	"mupod/internal/fixedpoint"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/obs"
	"mupod/internal/optimize"
	"mupod/internal/profile"
	"mupod/internal/search"
)

// Objective selects the ρ weights of Eq. 8.
type Objective int

// Built-in objectives from Sec. V-D; CustomRho lets callers optimize
// for any hardware criterion ("designers can formulate different
// optimization criteria using our framework", Sec. VI-A).
const (
	MinimizeInputBits Objective = iota // ρ_K = #Input elements of layer K (bandwidth)
	MinimizeMACBits                    // ρ_K = #MAC operations of layer K (energy)
	CustomRho
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MinimizeInputBits:
		return "opt_for_input"
	case MinimizeMACBits:
		return "opt_for_mac"
	case CustomRho:
		return "custom"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Config collects the tunables of a full pipeline run.
type Config struct {
	Profile   profile.Config
	Search    search.Options
	Objective Objective
	// Rho supplies the weights when Objective == CustomRho.
	Rho []float64
	// DeltaFloor caps the finest Δ (0 = optimize.DefaultDeltaFloor).
	DeltaFloor float64

	// Guard enables a post-allocation validation loop with REAL
	// quantized inference: while the allocation violates the accuracy
	// constraint on the evaluation subset, σ_YŁ is shrunk by
	// GuardShrink and ξ re-solved (profiling is not repeated). The
	// paper's large eval sets (≥12,500 ImageNet images, 1000 logits)
	// make its statistical σ search reliable enough to skip this; at
	// this repository's scale the guard absorbs the extra estimation
	// noise. Off by default.
	Guard           bool
	GuardShrink     float64 // σ multiplier per retry (default 0.85)
	GuardMaxRetries int     // default 10

	// Workers bounds the execution worker pool of every stage
	// (profiling replays, σ-search eval batches, guard validation);
	// 0 = GOMAXPROCS, 1 = sequential. Results are bit-identical at
	// every worker count. Stage-specific values in Profile.Workers /
	// Search.Workers take precedence when non-zero.
	Workers int

	// Kernel is the kernel policy of every stage's forward passes (zero
	// value = serial). Stage-specific policies in Profile.Kernel /
	// Search.Kernel take precedence when non-zero. Like Workers, no
	// policy changes results.
	Kernel kernels.Policy
}

// WithWorkers fans the pipeline-level Workers and Kernel knobs into the
// stage configs that did not set their own.
func (c Config) WithWorkers() Config {
	if c.Profile.Workers == 0 {
		c.Profile.Workers = c.Workers
	}
	if c.Search.Workers == 0 {
		c.Search.Workers = c.Workers
	}
	if (c.Profile.Kernel == kernels.Policy{}) {
		c.Profile.Kernel = c.Kernel
	}
	if (c.Search.Kernel == kernels.Policy{}) {
		c.Search.Kernel = c.Kernel
	}
	return c
}

// LayerAlloc is the per-layer outcome.
type LayerAlloc struct {
	NodeID int
	Name   string
	Xi     float64
	Delta  float64
	Format fixedpoint.Format
	Bits   int // stored width = Format.Width()
	Inputs int
	MACs   int
}

// Allocation is a complete bitwidth assignment with the metadata needed
// to score it under any criterion.
type Allocation struct {
	NetName   string
	Objective string
	SigmaYL   float64
	Layers    []LayerAlloc
}

// Bits returns the per-layer stored widths in layer order.
func (a *Allocation) Bits() []int {
	out := make([]int, len(a.Layers))
	for i := range a.Layers {
		out[i] = a.Layers[i].Bits
	}
	return out
}

func (a *Allocation) inputRho() []float64 {
	out := make([]float64, len(a.Layers))
	for i := range a.Layers {
		out[i] = float64(a.Layers[i].Inputs)
	}
	return out
}

func (a *Allocation) macRho() []float64 {
	out := make([]float64, len(a.Layers))
	for i := range a.Layers {
		out[i] = float64(a.Layers[i].MACs)
	}
	return out
}

// EffectiveInputBits is the paper's Input column: Σ#Input_K·B_K/Σ#Input_K.
func (a *Allocation) EffectiveInputBits() float64 {
	return energy.EffectiveBitwidth(a.inputRho(), a.Bits())
}

// EffectiveMACBits is the paper's MAC column: Σ#MAC_K·B_K/Σ#MAC_K.
func (a *Allocation) EffectiveMACBits() float64 {
	return energy.EffectiveBitwidth(a.macRho(), a.Bits())
}

// TotalInputBits is the absolute bandwidth per image in bits (the
// #Input_bits row of Table II).
func (a *Allocation) TotalInputBits() int64 {
	var total int64
	for i := range a.Layers {
		total += int64(a.Layers[i].Inputs) * int64(a.Layers[i].Bits)
	}
	return total
}

// TotalMACBits is Σ#MAC_K·B_K (the #MAC_bits row of Table II).
func (a *Allocation) TotalMACBits() int64 {
	var total int64
	for i := range a.Layers {
		total += int64(a.Layers[i].MACs) * int64(a.Layers[i].Bits)
	}
	return total
}

// MACEnergy scores the allocation under a MAC energy model with a
// uniform weight bitwidth (pJ per image).
func (a *Allocation) MACEnergy(m energy.MACModel, weightBits int) float64 {
	macs := make([]int, len(a.Layers))
	for i := range a.Layers {
		macs[i] = a.Layers[i].MACs
	}
	e, err := m.NetworkEnergy(macs, a.Bits(), weightBits)
	if err != nil {
		panic(err) // impossible: lengths match by construction
	}
	return e
}

// InjectionPlan returns the REAL-quantization injection plan: every
// analyzable layer's input is rounded to its allocated fixed-point
// format during the forward pass.
func (a *Allocation) InjectionPlan() map[int]nn.Injector {
	plan := make(map[int]nn.Injector, len(a.Layers))
	for i := range a.Layers {
		plan[a.Layers[i].NodeID] = profile.QuantizeInjector(a.Layers[i].Format)
	}
	return plan
}

// Validate measures top-1 accuracy of net over the first n images of ds
// with the allocation's formats actually applied (not modelled).
// Quantizing injectors are stateless, so validation batches run across
// all cores with bit-identical results.
func (a *Allocation) Validate(net *nn.Network, ds *dataset.Dataset, n int) float64 {
	acc, _ := exec.Accuracy(context.Background(), 0, kernels.Policy{}, net, ds, n, 32, a.InjectionPlan())
	return acc
}

// FromXi converts an optimized ξ decomposition into a concrete
// Allocation using the profile's λ/θ/IntBits.
func FromXi(prof *profile.Profile, sigmaYL float64, xi []float64, objective string, deltaFloor float64) (*Allocation, error) {
	return FromXiScaled(prof, sigmaYL, xi, objective, deltaFloor, 1)
}

// FromXiScaled is FromXi with every layer's Δ multiplied by deltaScale
// before the format conversion. The guard loop shrinks this scale
// (rather than σ) because a positive fitted θ_K floors Δ_K as σ → 0,
// which would otherwise let a failing allocation stall.
func FromXiScaled(prof *profile.Profile, sigmaYL float64, xi []float64, objective string, deltaFloor, deltaScale float64) (*Allocation, error) {
	if len(xi) != prof.NumLayers() {
		return nil, fmt.Errorf("core: ξ has %d entries for %d layers", len(xi), prof.NumLayers())
	}
	if deltaFloor <= 0 {
		deltaFloor = optimize.DefaultDeltaFloor
	}
	if deltaScale <= 0 {
		return nil, fmt.Errorf("core: non-positive delta scale %g", deltaScale)
	}
	a := &Allocation{NetName: prof.NetName, Objective: objective, SigmaYL: sigmaYL}
	for k := range prof.Layers {
		lp := &prof.Layers[k]
		delta := lp.DeltaFor(sigmaYL, xi[k]) * deltaScale
		if delta < deltaFloor {
			delta = deltaFloor
		}
		f := lp.FormatFor(delta)
		a.Layers = append(a.Layers, LayerAlloc{
			NodeID: lp.NodeID,
			Name:   lp.Name,
			Xi:     xi[k],
			Delta:  delta,
			Format: f,
			Bits:   f.Width(),
			Inputs: lp.Inputs,
			MACs:   lp.MACs,
		})
	}
	return a, nil
}

// Uniform builds the smallest-uniform-bitwidth style allocation: every
// layer stores `bits` total bits, with the integer part taken from the
// profiled range (fraction = bits − I, possibly negative). This is the
// paper's baseline when no Stripes profile exists.
func Uniform(prof *profile.Profile, bits int) *Allocation {
	a := &Allocation{NetName: prof.NetName, Objective: fmt.Sprintf("uniform%d", bits)}
	for k := range prof.Layers {
		lp := &prof.Layers[k]
		f := fixedpoint.Format{IntBits: lp.IntBits, FracBits: bits - lp.IntBits}
		a.Layers = append(a.Layers, LayerAlloc{
			NodeID: lp.NodeID,
			Name:   lp.Name,
			Delta:  f.Delta(),
			Format: f,
			Bits:   f.Width(),
			Inputs: lp.Inputs,
			MACs:   lp.MACs,
		})
	}
	return a
}

// WithBits builds an allocation with explicit per-layer total widths
// (integer bits from the profile; used by the Stripes-style search
// baseline).
func WithBits(prof *profile.Profile, bits []int) (*Allocation, error) {
	if len(bits) != prof.NumLayers() {
		return nil, fmt.Errorf("core: %d bitwidths for %d layers", len(bits), prof.NumLayers())
	}
	a := &Allocation{NetName: prof.NetName, Objective: "explicit"}
	for k := range prof.Layers {
		lp := &prof.Layers[k]
		f := fixedpoint.Format{IntBits: lp.IntBits, FracBits: bits[k] - lp.IntBits}
		a.Layers = append(a.Layers, LayerAlloc{
			NodeID: lp.NodeID,
			Name:   lp.Name,
			Delta:  f.Delta(),
			Format: f,
			Bits:   f.Width(),
			Inputs: lp.Inputs,
			MACs:   lp.MACs,
		})
	}
	return a, nil
}

// rhoFor materializes the objective's ρ weights.
func rhoFor(prof *profile.Profile, obj Objective, custom []float64) ([]float64, error) {
	n := prof.NumLayers()
	rho := make([]float64, n)
	switch obj {
	case MinimizeInputBits:
		for k := range prof.Layers {
			rho[k] = float64(prof.Layers[k].Inputs)
		}
	case MinimizeMACBits:
		for k := range prof.Layers {
			rho[k] = float64(prof.Layers[k].MACs)
		}
	case CustomRho:
		if len(custom) != n {
			return nil, fmt.Errorf("core: custom ρ has %d entries for %d layers", len(custom), n)
		}
		copy(rho, custom)
	default:
		return nil, fmt.Errorf("core: unknown objective %v", obj)
	}
	return rho, nil
}

// OptimizeXi solves Eq. 8 for the given profile, σ_YŁ and objective and
// returns the optimal decomposition with the solver's Stats.
func OptimizeXi(ctx context.Context, prof *profile.Profile, sigmaYL float64, cfg Config) ([]float64, optimize.Stats, error) {
	rho, err := rhoFor(prof, cfg.Objective, cfg.Rho)
	if err != nil {
		return nil, optimize.Stats{}, err
	}
	obj, err := optimize.NewBitObjective(prof, sigmaYL, rho, cfg.DeltaFloor)
	if err != nil {
		return nil, optimize.Stats{}, err
	}
	return optimize.Solve(ctx, obj)
}

// Result is the output of a full pipeline run.
type Result struct {
	Profile    *profile.Profile
	Search     *search.Result
	Allocation *Allocation

	// GuardRetries counts how often the guard loop shrank σ (0 when the
	// first allocation already validated, or when the guard is off).
	GuardRetries int
	// GuardedSigma is the σ_YŁ actually used by the final allocation
	// (== Search.SigmaYL when no retry happened).
	GuardedSigma float64

	ProfileTime time.Duration
	SearchTime  time.Duration
	SolveTime   time.Duration
}

// Run executes the complete pipeline: profile → σ search → ξ
// optimization → allocation. The caller supplies a held-out dataset
// (profiling uses its head, accuracy search its first half per the
// paper's "at least half of the test dataset").
func Run(net *nn.Network, ds *dataset.Dataset, cfg Config) (*Result, error) {
	return RunContext(context.Background(), net, ds, cfg)
}

// RunContext is Run with cancellation threaded through every stage:
// profiling, the σ search and the guard loop all check ctx and return
// promptly once the caller cancels.
func RunContext(ctx context.Context, net *nn.Network, ds *dataset.Dataset, cfg Config) (*Result, error) {
	cfg = cfg.WithWorkers()
	res := &Result{}

	ctx, psp := obs.Start(ctx, "pipeline",
		obs.KV("net", net.Name), obs.KV("objective", cfg.Objective.String()),
		obs.KV("workers", cfg.Workers))
	defer psp.End()

	t0 := time.Now()
	prof, err := profile.RunContext(ctx, net, ds, cfg.Profile)
	if err != nil {
		return nil, fmt.Errorf("core: profiling: %w", err)
	}
	res.Profile = prof
	res.ProfileTime = time.Since(t0)

	t0 = time.Now()
	sr, err := search.RunContext(ctx, net, prof, ds, cfg.Search)
	if err != nil {
		return nil, fmt.Errorf("core: σ search: %w", err)
	}
	res.Search = sr
	res.SearchTime = time.Since(t0)

	t0 = time.Now()
	alloc, sigma, retries, err := AllocateContext(ctx, net, ds, prof, sr, cfg)
	if err != nil {
		return nil, err
	}
	res.Allocation = alloc
	res.GuardedSigma = sigma
	res.GuardRetries = retries
	res.SolveTime = time.Since(t0)
	return res, nil
}

// Allocate solves ξ for the searched σ and builds the allocation,
// applying the guard loop when cfg.Guard is set. It returns the final
// allocation, the σ actually used, and the number of guard retries.
func Allocate(net *nn.Network, ds *dataset.Dataset, prof *profile.Profile, sr *search.Result, cfg Config) (*Allocation, float64, int, error) {
	return AllocateContext(context.Background(), net, ds, prof, sr, cfg)
}

// AllocateContext is Allocate with cancellation: the guard loop checks
// ctx before every (potentially expensive) real-quantization validation
// pass.
func AllocateContext(ctx context.Context, net *nn.Network, ds *dataset.Dataset, prof *profile.Profile, sr *search.Result, cfg Config) (*Allocation, float64, int, error) {
	if err := fault.Hit(ctx, "solve.allocate"); err != nil {
		return nil, 0, 0, fmt.Errorf("core: %w", err)
	}
	cfg = cfg.WithWorkers()
	sigma := sr.SigmaYL
	shrink := cfg.GuardShrink
	if shrink <= 0 || shrink >= 1 {
		shrink = 0.85
	}
	retries := cfg.GuardMaxRetries
	if retries <= 0 {
		retries = 10
	}
	sctx, ssp := obs.Start(ctx, "solve", obs.KV("sigma", sigma))
	xi, st, err := OptimizeXi(sctx, prof, sigma, cfg)
	ssp.SetAttr("iterations", st.Iterations)
	ssp.End()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: ξ optimization: %w", err)
	}
	// Validate on the SAME subset the σ search measured its target
	// against; a different subset would make the target unreachable
	// whenever the two subsets' exact accuracies differ.
	evalImages := cfg.Search.EvalImages
	if evalImages == 0 {
		evalImages = sr.EvalImages
	}
	gctx := ctx
	var gsp *obs.Span
	var pool *exec.Pool
	if cfg.Guard {
		gctx, gsp = obs.Start(ctx, "guard",
			obs.KV("shrink", shrink), obs.KV("max_retries", retries))
		defer gsp.End()
		// One pool serves every round, so the rounds share one plan and
		// one set of arena sessions; quantizing injectors are stateless,
		// so validation parallelizes across eval batches on the kernel
		// backend the σ search used.
		pool = exec.NewPool(net, cfg.Search.Workers, cfg.Search.Kernel)
	}
	scale := 1.0
	for attempt := 0; ; attempt++ {
		alloc, err := FromXiScaled(prof, sigma, xi, cfg.Objective.String(), cfg.DeltaFloor, scale)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("core: allocation: %w", err)
		}
		if !cfg.Guard {
			return alloc, sigma, attempt, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, fmt.Errorf("core: guard: %w", err)
		}
		rctx, rsp := obs.Start(gctx, "guard.round",
			obs.KV("attempt", attempt), obs.KV("scale", scale))
		plan := alloc.InjectionPlan()
		acc, err := pool.Accuracy(rctx, ds, evalImages, 32, func(int) map[int]nn.Injector { return plan }, nil)
		if err != nil {
			rsp.End()
			return nil, 0, 0, fmt.Errorf("core: guard: %w", err)
		}
		rsp.SetAttr("accuracy", acc)
		rsp.SetAttr("pass", acc >= sr.TargetAcc)
		rsp.End()
		if acc >= sr.TargetAcc {
			gsp.SetAttr("retries", attempt)
			return alloc, sigma * scale, attempt, nil
		}
		if attempt >= retries {
			return nil, 0, 0, fmt.Errorf("core: guard exhausted after %d retries (accuracy %.3f < target %.3f)",
				attempt, acc, sr.TargetAcc)
		}
		scale *= shrink
	}
}
