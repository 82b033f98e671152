package refcheck

import (
	"context"
	"fmt"
	"math"

	"mupod/internal/exec"
	"mupod/internal/fixedpoint"
	"mupod/internal/kernels"
	"mupod/internal/optimize"
	"mupod/internal/pareto"
	"mupod/internal/profile"
	"mupod/internal/search"
	"mupod/internal/tensor"
	"mupod/internal/testnet"
)

// Options configures a self-check sweep.
type Options struct {
	// Workers is the parallel fast-path worker count compared against
	// workers=1 and the reference (0 = GOMAXPROCS).
	Workers int
	// Kernel is the kernel policy threaded through the pipeline checks
	// (zero value = serial). The kernel differential sweep always
	// covers every policy regardless of this setting.
	Kernel kernels.Policy
	// Nets restricts the sweep to a subset of testnet.ZooNames()
	// (nil/empty = all).
	Nets []string
	// GridSteps sets the brute-force oracle resolution for Eq. 8
	// problems small enough to enumerate (default 20).
	GridSteps int
	// Logf receives one line per completed check (optional).
	Logf func(format string, args ...any)
}

// Check is one named invariant verified (or not) by the sweep.
type Check struct {
	Net  string // "" for network-independent checks
	Name string
	Err  error
}

// Report is the outcome of a self-check sweep.
type Report struct {
	Checks []Check
}

// Failed returns the checks that did not hold.
func (r *Report) Failed() []Check {
	var out []Check
	for _, c := range r.Checks {
		if c.Err != nil {
			out = append(out, c)
		}
	}
	return out
}

// OK reports whether every check held.
func (r *Report) OK() bool { return len(r.Failed()) == 0 }

type runState struct {
	opts Options
	rep  *Report
}

func (s *runState) add(net, name string, err error) {
	s.rep.Checks = append(s.rep.Checks, Check{Net: net, Name: name, Err: err})
	if s.opts.Logf != nil {
		label := name
		if net != "" {
			label = net + "/" + name
		}
		if err != nil {
			s.opts.Logf("FAIL %s: %v", label, err)
		} else {
			s.opts.Logf("ok   %s", label)
		}
	}
}

// quantizerFormats is the sweep matrix for the quantizer differential:
// ordinary, negative-F (Stripes/Loom), degenerate zero-width, and
// wide formats.
var quantizerFormats = []fixedpoint.Format{
	{IntBits: 4, FracBits: 2},
	{IntBits: 8, FracBits: 0},
	{IntBits: 2, FracBits: 6},
	{IntBits: 8, FracBits: -2},
	{IntBits: 9, FracBits: -3},
	{IntBits: 1, FracBits: -1}, // Width() == 0
	{IntBits: 2, FracBits: -5}, // Width() < 0
	{IntBits: 0, FracBits: 0},
	{IntBits: 6, FracBits: 10},
	{IntBits: 16, FracBits: 8},
}

func quantizerSamples(f fixedpoint.Format) []float64 {
	step := f.Step()
	xs := []float64{
		0, 1, -1, 0.5, -0.5, 1.0 / 3, -2.0 / 3, math.Pi, -math.E,
		math.NaN(), math.Inf(1), math.Inf(-1),
		1e300, -1e300, 5e-324, -5e-324,
		f.MaxValue(), f.MinValue(), f.MaxValue() + step, f.MinValue() - step,
	}
	// Tie points (k + 1/2)·step exercise the rounding rule, scaled
	// points the code range.
	for k := -3.0; k <= 3; k++ {
		xs = append(xs, (k+0.5)*step, k*step, k*step*255)
	}
	return xs
}

// checkGlobal runs the network-independent invariants: quantizer
// differential, format round-trips (negative F included), and the σ
// notation identity.
func (s *runState) checkGlobal() {
	for _, f := range quantizerFormats {
		s.add("", fmt.Sprintf("quantizer %v", f), CheckQuantizer(f, quantizerSamples(f)))
	}
	var err error
	for fb := -12; fb <= 24 && err == nil; fb++ {
		err = CheckFormatRoundTrip(fb)
	}
	s.add("", "format round-trip F=-12..24", err)
	err = nil
	for _, d := range []float64{1e-9, 1.0 / 3, 0.5, 1, math.Pi, 1e6} {
		if err == nil {
			err = CheckSigmaIdentity(d)
		}
	}
	s.add("", "sigma notation identity", err)
}

// checkForward compares the exec fast path against the reference
// kernels on one zoo fixture, at workers=1 and opts.Workers, and
// demands bit-identical results across worker counts.
func (s *runState) checkForward(ctx context.Context, f testnet.Fixture) error {
	const batch, nBatches = 16, 4
	ref := make([]*tensor.Tensor, nBatches)
	for b := 0; b < nBatches; b++ {
		ref[b] = ForwardNetwork(f.Net, f.Test.Batch(b*batch, batch), nil)
	}
	var outs [][]*tensor.Tensor
	for _, workers := range []int{1, s.opts.Workers} {
		pool := exec.NewPool(f.Net, workers, s.opts.Kernel)
		got := make([]*tensor.Tensor, nBatches)
		err := pool.Map(ctx, nBatches, func(ctx context.Context, worker, b int) error {
			got[b] = pool.Session(worker).Forward(f.Test.Batch(b*batch, batch), nil).Clone()
			return nil
		})
		if err != nil {
			return err
		}
		for b := 0; b < nBatches; b++ {
			diff, err := CompareTensors(got[b], ref[b])
			if err != nil {
				return fmt.Errorf("workers=%d batch %d: %w", workers, b, err)
			}
			if diff > ForwardTol {
				return fmt.Errorf("workers=%d batch %d: fast path diverges from reference by %g (tol %g)", workers, b, diff, ForwardTol)
			}
		}
		outs = append(outs, got)
	}
	// Bit-identity across worker counts (stronger than the reference
	// tolerance: parallel evaluation must not change a single bit).
	for b := 0; b < nBatches; b++ {
		for i := range outs[0][b].Data {
			if outs[0][b].Data[i] != outs[1][b].Data[i] {
				return fmt.Errorf("batch %d element %d: workers=1 and workers=%d disagree bit-wise", b, i, s.opts.Workers)
			}
		}
	}
	return nil
}

// checkKernelBackends runs the compute-kernel differentials on one
// fixture: every kernel policy must stay within ForwardTol of the
// reference kernels, and "parallel" must be bit-identical to "blocked"
// at every intra-op worker count (it only shards disjoint outputs; the
// per-output reduction order is part of the kernel contract).
func (s *runState) checkKernelBackends(f testnet.Fixture) {
	const batch = 16
	in := f.Test.Batch(0, batch)
	ref := ForwardNetwork(f.Net, in, nil)
	plan := exec.NewPlan(f.Net)

	forward := func(pol kernels.Policy) *tensor.Tensor {
		return exec.NewSessionPolicy(plan, pol).Forward(in, nil).Clone()
	}
	outs := make(map[string]*tensor.Tensor)
	for _, name := range kernels.Names() {
		out := forward(kernels.Policy{Impl: name, IntraWorkers: 3})
		outs[name] = out
		diff, err := CompareTensors(out, ref)
		if err == nil && diff > ForwardTol {
			err = fmt.Errorf("diverges from reference by %g (tol %g)", diff, ForwardTol)
		}
		s.add(f.Name, "kernel differential "+name, err)
	}

	bitIdentical := func(a, b *tensor.Tensor, what string) error {
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return fmt.Errorf("%s disagree bit-wise at element %d", what, i)
			}
		}
		return nil
	}
	err := bitIdentical(outs[kernels.DefaultImpl], outs["parallel"], "blocked and parallel")
	if err == nil {
		w1 := forward(kernels.Policy{Impl: "parallel", IntraWorkers: 1})
		wN := forward(kernels.Policy{Impl: "parallel", IntraWorkers: s.opts.Workers})
		err = bitIdentical(w1, wN, fmt.Sprintf("parallel intra-workers 1 and %d", s.opts.Workers))
	}
	s.add(f.Name, "kernel parallel bit-identity", err)
}

// checkPipeline profiles, searches and solves one fixture, verifying
// the Eq. 5 fit, the format derivation, the search bracketing, the
// Eq. 6 simplex budget, the first-order Eq. 8 oracle and — when the
// layer count permits — the brute-force Eq. 8 oracle.
func (s *runState) checkPipeline(ctx context.Context, f testnet.Fixture) {
	prof, err := profile.RunContext(ctx, f.Net, f.Test, profile.Config{
		Images: 16, Points: 8, Seed: 11, Workers: s.opts.Workers, Kernel: s.opts.Kernel,
	})
	s.add(f.Name, "profile", err)
	if err != nil {
		return
	}
	var fitErr error
	for i := range prof.Layers {
		// Bounds follow the paper's Fig. 2 discussion (<5% typical,
		// ~10% worst) with slack for the tiny 8×8 fixtures.
		if e := CheckFit(&prof.Layers[i], 0.9, 0.25); e != nil && fitErr == nil {
			fitErr = e
		}
	}
	s.add(f.Name, "eq5 fit residuals", fitErr)

	res, err := search.RunContext(ctx, f.Net, prof, f.Test, search.Options{
		Scheme: search.Scheme2Gaussian, RelDrop: 0.05,
		EvalImages: 120, Seed: 13, Workers: s.opts.Workers,
		Kernel: s.opts.Kernel,
	})
	s.add(f.Name, "sigma search", err)
	if err != nil {
		return
	}
	s.add(f.Name, "search bracketing", CheckSearchTrace(res, 0.01))

	var fmtErr error
	for i := range prof.Layers {
		if e := CheckLayerFormats(&prof.Layers[i], res.SigmaYL, 1/float64(prof.NumLayers())); e != nil && fmtErr == nil {
			fmtErr = e
		}
	}
	s.add(f.Name, "format derivation", fmtErr)

	rho := make([]float64, prof.NumLayers())
	for k := range rho {
		rho[k] = float64(prof.Layers[k].MACs)
	}
	obj, err := optimize.NewBitObjective(prof, res.SigmaYL, rho, 0)
	if err != nil {
		s.add(f.Name, "allocation solve", err)
		return
	}
	xi, _, err := optimize.Solve(ctx, obj)
	s.add(f.Name, "allocation solve", err)
	if err != nil {
		return
	}
	s.add(f.Name, "eq6 simplex budget", CheckSimplex(xi, obj.LowerBound))
	s.add(f.Name, "eq8 first-order oracle", CheckNoDescentMove(obj, xi, oracleEps))
	if obj.Dim() <= 4 {
		s.add(f.Name, "eq8 grid oracle", CheckSolverBeatsGrid(obj, xi, s.opts.GridSteps, Allowance(obj, xi)))
	}

	s.checkPareto(ctx, f, prof, res.SigmaYL)
}

// checkPareto runs the Pareto-engine differentials on one fixture: the
// fast non-dominated filter and hypervolume against their brute-force
// references, NSGA-II worker-count determinism, and the front-quality
// invariants (strict staircase, hypervolume ≥ the warm-start sweep's).
func (s *runState) checkPareto(ctx context.Context, f testnet.Fixture, prof *profile.Profile, sigmaYL float64) {
	sweep, err := pareto.SweepContext(ctx, prof, sigmaYL, pareto.Config{})
	s.add(f.Name, "pareto sweep", err)
	if err != nil {
		return
	}
	s.add(f.Name, "eq8 first-order oracle (pareto blends)", checkSweepOptimal(prof, sigmaYL, sweep))
	s.add(f.Name, "pareto filter differential", CheckParetoFilter(sweep))
	s.add(f.Name, "pareto hypervolume differential", CheckParetoHypervolume(sweep, pareto.RefPoint(sweep)))

	cfg := pareto.NSGA2Config{Generations: 4, PopSize: 12, Seed: 17, Workers: 1}
	r1, err := pareto.RunNSGA2(ctx, prof, sigmaYL, cfg)
	s.add(f.Name, "nsga2 run", err)
	if err != nil {
		return
	}
	cfg.Workers = s.opts.Workers
	rN, err := pareto.RunNSGA2(ctx, prof, sigmaYL, cfg)
	if err == nil {
		err = CheckFrontsBitIdentical(r1.Front, rN.Front)
	}
	s.add(f.Name, "nsga2 worker determinism", err)
	s.add(f.Name, "nsga2 front quality", CheckNSGA2Front(r1))
	s.add(f.Name, "nsga2 hypervolume differential", CheckParetoHypervolume(r1.Front, r1.RefPoint))
}

// oracleEps is the mass CheckNoDescentMove moves between sources.
const oracleEps = 1e-7

// checkSweepOptimal runs the first-order oracle on every blend of a
// Pareto sweep. It rebuilds each blend's ρ from the profile, so a sweep
// that solved the wrong objective fails too.
func checkSweepOptimal(prof *profile.Profile, sigmaYL float64, sweep []pareto.Point) error {
	var inSum, macSum float64
	for _, lp := range prof.Layers {
		inSum += float64(lp.Inputs)
		macSum += float64(lp.MACs)
	}
	for _, pt := range sweep {
		rho := make([]float64, prof.NumLayers())
		xi := make([]float64, len(rho))
		for k, lp := range prof.Layers {
			rho[k] = (1-pt.Alpha)*float64(lp.Inputs)/inSum + pt.Alpha*float64(lp.MACs)/macSum
			xi[k] = pt.Allocation.Layers[k].Xi
		}
		obj, err := optimize.NewBitObjective(prof, sigmaYL, rho, 0)
		if err == nil {
			err = CheckNoDescentMove(obj, xi, oracleEps)
		}
		if err != nil {
			return fmt.Errorf("α=%g: %w", pt.Alpha, err)
		}
	}
	return nil
}

// Run executes the full self-check sweep: global numeric invariants,
// then reference-vs-fast differential forwards and the profile →
// search → solve invariants over every requested zoo fixture.
func Run(ctx context.Context, opts Options) (*Report, error) {
	if opts.Workers <= 0 {
		opts.Workers = exec.NewEvaluator(0).Workers()
	}
	if opts.Workers < 2 {
		opts.Workers = 2 // always compare a genuinely parallel run
	}
	if opts.GridSteps <= 0 {
		opts.GridSteps = 20
	}
	if err := opts.Kernel.Validate(); err != nil {
		return nil, fmt.Errorf("refcheck: %w", err)
	}
	names := opts.Nets
	if len(names) == 0 {
		names = testnet.ZooNames()
	} else {
		known := testnet.ZooNames()
		for _, n := range names {
			ok := false
			for _, k := range known {
				if n == k {
					ok = true
					break
				}
			}
			if !ok {
				return nil, fmt.Errorf("refcheck: unknown test network %q (have %v)", n, known)
			}
		}
	}
	s := &runState{opts: opts, rep: &Report{}}
	s.checkGlobal()
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return s.rep, err
		}
		net, _, te := testnet.ZooNet(name)
		f := testnet.Fixture{Name: name, Net: net, Test: te}
		s.add(name, "forward differential", s.checkForward(ctx, f))
		s.checkKernelBackends(f)
		s.checkPipeline(ctx, f)
	}
	return s.rep, nil
}
