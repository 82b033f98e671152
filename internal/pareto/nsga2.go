package pareto

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mupod/internal/core"
	"mupod/internal/energy"
	"mupod/internal/exec"
	"mupod/internal/fault"
	"mupod/internal/obs"
	"mupod/internal/optimize"
	"mupod/internal/profile"
	"mupod/internal/rng"
)

// NSGA-II over candidate ξ allocations. The α-sweep only reaches convex
// blends of the two Eq. 8 objectives; the genetic search explores the
// simplex directly (integer rounding in the Δ→format conversion makes
// the true frontier non-convex), warm-started from the sweep so one
// profile run amortizes across the whole front and the result can only
// gain hypervolume over the sweep.
//
// Determinism contract (matching the exec-engine one): every offspring
// gets its own pre-split RNG stream, split serially in slot order
// before the parallel section, and results land in per-index slots — so
// fronts are bit-identical across Workers counts and runs.

// NSGA2Config tunes the genetic search. The zero value selects sensible
// defaults everywhere.
type NSGA2Config struct {
	// Generations is the number of NSGA-II generations (default 20).
	Generations int
	// PopSize is the population size (default 32, minimum 2).
	PopSize int
	// Seed seeds the search's deterministic RNG.
	Seed uint64
	// Workers bounds the evaluation parallelism (<= 0: GOMAXPROCS).
	// Results do not depend on it.
	Workers int

	// Alphas, WeightBits, Model, DeltaFloor forward to the warm-start
	// sweep and the per-individual evaluation (same defaults as Config).
	Alphas     []float64
	WeightBits int
	Model      energy.MACModel
	DeltaFloor float64

	// EtaSBX is the SBX crossover distribution index (default 15;
	// larger = offspring closer to parents).
	EtaSBX float64
	// CrossProb is the per-mating SBX probability (default 0.9; the
	// rest clone the first parent).
	CrossProb float64
	// MutProb is the per-coordinate mutation probability (default 1/L).
	MutProb float64
	// MutSigma is the Gaussian mutation scale on simplex coordinates
	// (default 0.1).
	MutSigma float64
}

func (c NSGA2Config) withDefaults() NSGA2Config {
	if c.Generations <= 0 {
		c.Generations = 20
	}
	if c.PopSize < 2 {
		c.PopSize = 32
	}
	if c.EtaSBX <= 0 {
		c.EtaSBX = 15
	}
	if c.CrossProb <= 0 {
		c.CrossProb = 0.9
	}
	if c.MutSigma <= 0 {
		c.MutSigma = 0.1
	}
	return c
}

// NSGA2Result carries the evolved front plus the warm-start sweep it
// grew from, with hypervolumes at a common reference point so the two
// are directly comparable (Hypervolume >= SweepHypervolume by
// construction: every sweep point is in the archive the front is
// filtered from).
type NSGA2Result struct {
	// Front is the non-dominated filter of EVERY point evaluated during
	// the run (sweep warm-start, initial population, all offspring),
	// sorted by ascending InputBits. Evolved points have Alpha = -1.
	Front []Point
	// Sweep is the raw α-sweep used for warm starting (dominated points
	// included, one per α).
	Sweep []Point

	// RefPoint is the common hypervolume reference, from
	// RefPoint(Front, Sweep).
	RefPoint [2]float64
	// Hypervolume is the front's hypervolume at RefPoint.
	Hypervolume float64
	// SweepHypervolume is the sweep front's hypervolume at RefPoint.
	SweepHypervolume float64

	// Evals counts allocation evaluations (sweep solves included).
	Evals int
	// Generations echoes the completed generation count.
	Generations int
}

// indiv is one population member: a ξ vector with its evaluated
// operating point and cached objective vector.
type indiv struct {
	xi  []float64
	pt  Point
	obj []float64
}

// RunNSGA2 runs the full warm-started NSGA-II search for prof at the
// given σ_YŁ. It is deterministic in (prof, sigmaYL, cfg) — including
// across cfg.Workers values — and cancellable via ctx (checked every
// generation and inside the evaluator).
func RunNSGA2(ctx context.Context, prof *profile.Profile, sigmaYL float64, cfg NSGA2Config) (*NSGA2Result, error) {
	cfg = cfg.withDefaults()
	L := prof.NumLayers()
	if L == 0 {
		return nil, fmt.Errorf("pareto: empty profile")
	}
	ctx, sp := obs.Start(ctx, "pareto.nsga2",
		obs.KV("gens", cfg.Generations), obs.KV("pop", cfg.PopSize), obs.KV("seed", cfg.Seed))
	defer sp.End()

	sweep, err := SweepContext(ctx, prof, sigmaYL, Config{
		Alphas: cfg.Alphas, WeightBits: cfg.WeightBits, Model: cfg.Model, DeltaFloor: cfg.DeltaFloor,
	})
	if err != nil {
		return nil, err
	}
	evals := len(sweep)

	// Feasible region: the simplex above the same per-layer lower
	// bounds the convex solver uses (ρ does not enter the bounds).
	ones := make([]float64, L)
	for k := range ones {
		ones[k] = 1
	}
	bitObj, err := optimize.NewBitObjective(prof.Sources(), sigmaYL, ones, cfg.DeltaFloor)
	if err != nil {
		return nil, fmt.Errorf("pareto: %w", err)
	}
	lb := make([]float64, L)
	var lbSum float64
	for k := range lb {
		lb[k] = bitObj.LowerBound(k)
		lbSum += lb[k]
	}
	if lbSum >= 1 {
		return nil, fmt.Errorf("pareto: %w: Σlb=%.4g", optimize.ErrInfeasible, lbSum)
	}

	gen := rng.New(cfg.Seed)
	ev := exec.NewEvaluator(cfg.Workers)

	// Initial population: sweep points first (already evaluated), the
	// remainder sampled Dirichlet-uniformly over the feasible simplex.
	pop := make([]indiv, 0, cfg.PopSize)
	for _, p := range sweep {
		if len(pop) == cfg.PopSize {
			break
		}
		pop = append(pop, indiv{xi: xiOf(p.Allocation), pt: p, obj: objOf(p)})
	}
	fresh := 0 // individuals still needing evaluation
	for len(pop) < cfg.PopSize {
		pop = append(pop, indiv{xi: dirichlet(gen, lb)})
		fresh++
	}
	if fresh > 0 {
		base := cfg.PopSize - fresh
		if err := ev.Map(ctx, fresh, func(ictx context.Context, _, i int) error {
			pt, err := evalXi(prof, sigmaYL, cfg, pop[base+i].xi)
			if err != nil {
				return fmt.Errorf("pareto: init indiv %d: %w", base+i, err)
			}
			pop[base+i].pt, pop[base+i].obj = pt, objOf(pt)
			return nil
		}); err != nil {
			return nil, err
		}
		countEvals(fresh)
		evals += fresh
	}

	archive := append([]Point(nil), sweep...)
	for i := range pop {
		archive = append(archive, pop[i].pt)
	}
	archive = NonDominated(archive)

	rank, crowd := rankAndCrowd(pop)
	done := 0
	for g := 0; g < cfg.Generations; g++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pareto: nsga2: %w", err)
		}
		if err := fault.Hit(ctx, "pareto.generation"); err != nil {
			return nil, fmt.Errorf("pareto: generation %d: %w", g, err)
		}
		gctx, gsp := obs.Start(ctx, "pareto.nsga2.gen", obs.KV("gen", g))
		// Serial pre-split: one independent stream per offspring slot,
		// consumed only by that slot inside the parallel Map.
		streams := make([]*rng.RNG, cfg.PopSize)
		for i := range streams {
			streams[i] = gen.Split()
		}
		off := make([]indiv, cfg.PopSize)
		err := ev.Map(gctx, cfg.PopSize, func(ictx context.Context, _, i int) error {
			r := streams[i]
			p1 := tournament(r, rank, crowd)
			p2 := tournament(r, rank, crowd)
			xi := crossover(r, cfg.EtaSBX, cfg.CrossProb, pop[p1].xi, pop[p2].xi, lb)
			mutate(r, cfg.MutProb, cfg.MutSigma, xi, lb)
			pt, err := evalXi(prof, sigmaYL, cfg, xi)
			if err != nil {
				return fmt.Errorf("pareto: gen %d indiv %d: %w", g, i, err)
			}
			off[i] = indiv{xi: xi, pt: pt, obj: objOf(pt)}
			return nil
		})
		gsp.End()
		if err != nil {
			return nil, err
		}
		countEvals(cfg.PopSize)
		countGeneration()
		evals += cfg.PopSize
		done = g + 1

		for i := range off {
			archive = append(archive, off[i].pt)
		}
		archive = NonDominated(archive)
		pop = selectNext(append(pop, off...), cfg.PopSize)
		rank, crowd = rankAndCrowd(pop)
	}

	ref := RefPoint(archive, sweep)
	sweepHV := Hypervolume(sweep, ref)
	hv := Hypervolume(archive, ref) // last, so the gauge holds the final front
	sp.SetAttr("hv", hv)
	return &NSGA2Result{
		Front:            archive,
		Sweep:            sweep,
		RefPoint:         ref,
		Hypervolume:      hv,
		SweepHypervolume: sweepHV,
		Evals:            evals,
		Generations:      done,
	}, nil
}

// evalXi converts a candidate ξ into its operating point. RNG-free, so
// it can run on any worker without affecting determinism.
func evalXi(prof *profile.Profile, sigmaYL float64, cfg NSGA2Config, xi []float64) (Point, error) {
	alloc, err := core.FromXi(prof, sigmaYL, xi, "nsga2", cfg.DeltaFloor)
	if err != nil {
		return Point{}, err
	}
	model := cfg.Model
	if model == (energy.MACModel{}) {
		model = energy.Default40nm
	}
	wb := cfg.WeightBits
	if wb == 0 {
		wb = 8
	}
	return Point{
		Alpha:        -1, // evolved, not an α blend
		InputBits:    alloc.TotalInputBits(),
		MACEnergy:    alloc.MACEnergy(model, wb),
		EffInputBits: alloc.EffectiveInputBits(),
		EffMACBits:   alloc.EffectiveMACBits(),
		Allocation:   alloc,
	}, nil
}

func objOf(p Point) []float64 { return []float64{float64(p.InputBits), p.MACEnergy} }

func xiOf(a *core.Allocation) []float64 {
	xi := make([]float64, len(a.Layers))
	for k := range a.Layers {
		xi[k] = a.Layers[k].Xi
	}
	return xi
}

// dirichlet samples a uniformly distributed point of the feasible
// simplex: unit-rate exponentials normalized to the free mass above the
// lower bounds (Dirichlet(1,…,1)), then projected to wash out rounding.
func dirichlet(r *rng.RNG, lb []float64) []float64 {
	n := len(lb)
	xi := make([]float64, n)
	var sum, lbSum float64
	for k := range xi {
		e := -math.Log(1 - r.Float64()) // Exp(1); argument stays in (0,1]
		xi[k] = e
		sum += e
		lbSum += lb[k]
	}
	mass := 1 - lbSum
	for k := range xi {
		xi[k] = lb[k] + mass*xi[k]/sum
	}
	optimize.ProjectSimplexLB(xi, lb)
	return xi
}

// rankAndCrowd computes front ranks and crowding distances for the
// whole population, aligned with population indices.
func rankAndCrowd(pop []indiv) (rank []int, crowd []float64) {
	objs := make([][]float64, len(pop))
	for i := range pop {
		objs[i] = pop[i].obj
	}
	fronts, rank := FastNonDominatedSort(objs)
	crowd = make([]float64, len(pop))
	for _, f := range fronts {
		d := CrowdingDistance(objs, f)
		for i, idx := range f {
			crowd[idx] = d[i]
		}
	}
	return rank, crowd
}

// tournament is the NSGA-II binary tournament: lower rank wins, then
// higher crowding distance, then lower index (deterministic tie-break).
func tournament(r *rng.RNG, rank []int, crowd []float64) int {
	a, b := r.Intn(len(rank)), r.Intn(len(rank))
	switch {
	case rank[a] < rank[b]:
		return a
	case rank[b] < rank[a]:
		return b
	case crowd[a] > crowd[b]:
		return a
	case crowd[b] > crowd[a]:
		return b
	case a <= b:
		return a
	}
	return b
}

// crossover applies simulated binary crossover (SBX) per coordinate and
// projects the child back onto the feasible simplex. With probability
// 1−prob it clones the first parent instead.
func crossover(r *rng.RNG, eta, prob float64, p1, p2, lb []float64) []float64 {
	c := make([]float64, len(p1))
	if r.Float64() > prob {
		copy(c, p1)
		return c
	}
	for k := range c {
		u := r.Float64()
		var beta float64
		if u <= 0.5 {
			beta = math.Pow(2*u, 1/(eta+1))
		} else {
			beta = math.Pow(1/(2*(1-u)), 1/(eta+1))
		}
		c[k] = 0.5 * ((1+beta)*p1[k] + (1-beta)*p2[k])
	}
	optimize.ProjectSimplexLB(c, lb)
	return c
}

// mutate adds Gaussian noise to a random subset of coordinates
// (probability prob each, default 1/L) and re-projects when anything
// moved.
func mutate(r *rng.RNG, prob, sigma float64, xi, lb []float64) {
	if prob <= 0 {
		prob = 1 / float64(len(xi))
	}
	moved := false
	for k := range xi {
		if r.Float64() < prob {
			xi[k] += sigma * r.Normal()
			moved = true
		}
	}
	if moved {
		optimize.ProjectSimplexLB(xi, lb)
	}
}

// selectNext is NSGA-II environmental selection: fill the next
// population front by front from the 2N combined pool; the last partial
// front is taken in descending crowding order (index ascending on
// ties). The survivor list keeps front-then-crowding order, which is
// deterministic because every sort key ties break by pool index.
func selectNext(combined []indiv, n int) []indiv {
	objs := make([][]float64, len(combined))
	for i := range combined {
		objs[i] = combined[i].obj
	}
	fronts, _ := FastNonDominatedSort(objs)
	next := make([]indiv, 0, n)
	for _, f := range fronts {
		if len(next)+len(f) <= n {
			for _, idx := range f {
				next = append(next, combined[idx])
			}
			if len(next) == n {
				break
			}
			continue
		}
		d := CrowdingDistance(objs, f)
		order := make([]int, len(f))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			if d[order[a]] != d[order[b]] {
				return d[order[a]] > d[order[b]]
			}
			return f[order[a]] < f[order[b]]
		})
		for _, i := range order {
			if len(next) == n {
				break
			}
			next = append(next, combined[f[i]])
		}
		break
	}
	return next
}
