// Package pareto makes the "multi-objective" of the paper's title
// explicit: instead of optimizing for ONE criterion at a time (Sec. V-D
// optimizes either bandwidth or MAC energy), it sweeps a weighted blend
// of the two Eq. 8 objectives and returns the non-dominated frontier of
// (input-bandwidth, MAC-energy) operating points, from which a designer
// picks a trade-off. Because each blended problem is still a separable
// convex program on the simplex, the whole frontier costs one profile
// plus a few dozen solver runs — seconds, not the hours a search-based
// method would need per point.
package pareto

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mupod/internal/core"
	"mupod/internal/energy"
	"mupod/internal/obs"
	"mupod/internal/profile"
)

// Point is one operating point of the frontier.
type Point struct {
	// Alpha is the blend weight: 0 = pure bandwidth objective,
	// 1 = pure MAC-energy objective.
	Alpha float64

	InputBits int64   // total input bandwidth per image (bits)
	MACEnergy float64 // pJ per image at the given weight width

	EffInputBits float64
	EffMACBits   float64

	Allocation *core.Allocation
}

// Config tunes the sweep.
type Config struct {
	// Alphas lists the blend weights to solve (default: 0, 0.1, …, 1).
	Alphas []float64
	// WeightBits is the uniform weight width used by the energy model
	// (default 8).
	WeightBits int
	// Model is the MAC energy model (default energy.Default40nm).
	Model energy.MACModel
	// DeltaFloor forwards to the allocator.
	DeltaFloor float64
}

func (c Config) withDefaults() Config {
	if len(c.Alphas) == 0 {
		for i := 0; i <= 10; i++ {
			c.Alphas = append(c.Alphas, float64(i)/10)
		}
	}
	if c.WeightBits == 0 {
		c.WeightBits = 8
	}
	if c.Model == (energy.MACModel{}) {
		c.Model = energy.Default40nm
	}
	return c
}

// Sweep solves the blended objective for every α and returns one point
// per α (dominated points included; filter with NonDominated).
//
// The blend normalizes each ρ vector to unit sum first, so α moves
// between the two criteria on comparable scales regardless of the
// magnitude difference between #Input and #MAC counts.
func Sweep(prof *profile.Profile, sigmaYL float64, cfg Config) ([]Point, error) {
	return SweepContext(context.Background(), prof, sigmaYL, cfg)
}

// SweepContext is Sweep with cancellation (checked between solver runs)
// and telemetry: the run records a pareto.sweep span and counts each
// solved blend on mupod_pareto_evals_total.
func SweepContext(ctx context.Context, prof *profile.Profile, sigmaYL float64, cfg Config) ([]Point, error) {
	cfg = cfg.withDefaults()
	ctx, sp := obs.Start(ctx, "pareto.sweep",
		obs.KV("alphas", len(cfg.Alphas)), obs.KV("sigma", sigmaYL))
	defer sp.End()
	L := prof.NumLayers()
	if L == 0 {
		return nil, fmt.Errorf("pareto: empty profile")
	}
	inputRho := make([]float64, L)
	macRho := make([]float64, L)
	var inSum, macSum float64
	for k := range prof.Layers {
		inputRho[k] = float64(prof.Layers[k].Inputs)
		macRho[k] = float64(prof.Layers[k].MACs)
		inSum += inputRho[k]
		macSum += macRho[k]
	}
	if inSum == 0 || macSum == 0 {
		return nil, fmt.Errorf("pareto: degenerate ρ (Σ#Input=%g, Σ#MAC=%g)", inSum, macSum)
	}

	var points []Point
	for _, alpha := range cfg.Alphas {
		if alpha < 0 || alpha > 1 {
			return nil, fmt.Errorf("pareto: α=%g outside [0,1]", alpha)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pareto: sweep: %w", err)
		}
		rho := make([]float64, L)
		for k := 0; k < L; k++ {
			rho[k] = (1-alpha)*inputRho[k]/inSum + alpha*macRho[k]/macSum
		}
		xi, _, err := core.OptimizeXi(ctx, prof, sigmaYL, core.Config{
			Objective: core.CustomRho, Rho: rho, DeltaFloor: cfg.DeltaFloor,
		})
		if err != nil {
			return nil, fmt.Errorf("pareto: α=%g: %w", alpha, err)
		}
		alloc, err := core.FromXi(prof, sigmaYL, xi, fmt.Sprintf("blend_%.2f", alpha), cfg.DeltaFloor)
		if err != nil {
			return nil, fmt.Errorf("pareto: α=%g: %w", alpha, err)
		}
		countEvals(1)
		points = append(points, Point{
			Alpha:        alpha,
			InputBits:    alloc.TotalInputBits(),
			MACEnergy:    alloc.MACEnergy(cfg.Model, cfg.WeightBits),
			EffInputBits: alloc.EffectiveInputBits(),
			EffMACBits:   alloc.EffectiveMACBits(),
			Allocation:   alloc,
		})
	}
	return points, nil
}

// energyTieEps is the relative tolerance used when deciding whether two
// MACEnergy values are "the same point". Several α (or NSGA-II
// individuals) can map to the same allocation after integer rounding,
// but the pJ totals are sums of floats and may differ in the last few
// ulps depending on summation order.
const energyTieEps = 1e-9

// EnergyTie reports whether two MACEnergy values are equal up to a
// relative tolerance of 1e-9 (absolute near zero). The duplicate
// collapse in NonDominated uses this instead of == so allocations that
// are identical modulo float summation order collapse to one point.
func EnergyTie(a, b float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d <= energyTieEps*scale
}

// finitePoint reports whether a point's objectives are both finite
// (InputBits is an int64, so only MACEnergy can go NaN/Inf — e.g. from
// a degenerate energy model). Non-finite points are rejected by
// NonDominated: NaN compares false with everything, so keeping them
// would make dominance non-transitive.
func finitePoint(p Point) bool {
	return !math.IsNaN(p.MACEnergy) && !math.IsInf(p.MACEnergy, 0)
}

// NonDominated filters to the Pareto-optimal subset (minimizing both
// InputBits and MACEnergy) and returns it sorted by ascending InputBits
// (hence strictly descending MACEnergy). Points with NaN or ±Inf
// MACEnergy are dropped. Duplicate operating points — equal InputBits
// and EnergyTie-equal MACEnergy — collapse to the first by (InputBits,
// MACEnergy, Alpha) order, keeping the result deterministic regardless
// of input order.
//
// internal/refcheck.ParetoFrontRef recomputes the same filter by brute
// force as the differential oracle.
func NonDominated(points []Point) []Point {
	var front []Point
	for i, p := range points {
		if !finitePoint(p) {
			continue
		}
		dominated := false
		for j, q := range points {
			if i == j || !finitePoint(q) {
				continue
			}
			// q dominates p when it is no worse in both and strictly
			// better in at least one criterion.
			if q.InputBits <= p.InputBits && q.MACEnergy <= p.MACEnergy &&
				(q.InputBits < p.InputBits || q.MACEnergy < p.MACEnergy) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.SliceStable(front, func(i, j int) bool {
		if front[i].InputBits != front[j].InputBits {
			return front[i].InputBits < front[j].InputBits
		}
		if front[i].MACEnergy != front[j].MACEnergy {
			return front[i].MACEnergy < front[j].MACEnergy
		}
		return front[i].Alpha < front[j].Alpha
	})
	// Collapse duplicates against the last kept point: same bandwidth,
	// or an energy "improvement" within float noise (the extra
	// bandwidth buys nothing measurable, so keep the cheaper point).
	out := front[:0]
	for _, p := range front {
		if len(out) > 0 {
			last := out[len(out)-1]
			if p.InputBits == last.InputBits || EnergyTie(p.MACEnergy, last.MACEnergy) {
				continue
			}
		}
		out = append(out, p)
	}
	return out
}
