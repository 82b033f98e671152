package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mupod/internal/baseline"
	"mupod/internal/core"
	"mupod/internal/profile"
	"mupod/internal/search"
	"mupod/internal/zoo"
)

// MethodVsSearchResult reproduces the Sec. VI-A cost discussion: the
// paper's analytic pipeline (profile + binary search + optimize)
// against the Stripes-style per-layer dynamic search, comparing both
// wall-clock cost and result quality on the same objective.
type MethodVsSearchResult struct {
	Arch    zoo.Arch
	RelDrop float64

	// Ours.
	PipelineTime  time.Duration
	PipelineEvals int // accuracy evaluations (binary search only)
	OursInputBits int64
	OursMACBits   int64
	OursQuantAcc  float64

	// Dynamic search baseline.
	SearchTime      time.Duration
	SearchEvals     int
	SearchInputBits int64
	SearchMACBits   int64
	SearchQuantAcc  float64

	ExactAcc float64
}

// MethodVsSearch runs both methods at the same constraint.
func MethodVsSearch(ctx context.Context, a zoo.Arch, relDrop float64, o Opts) (*MethodVsSearchResult, error) {
	o = o.withDefaults()
	l, err := load(a)
	if err != nil {
		return nil, err
	}
	res := &MethodVsSearchResult{
		Arch:     a,
		RelDrop:  relDrop,
		ExactAcc: exactAccuracy(ctx, l, 0, o),
	}

	// Our pipeline.
	t0 := time.Now()
	prof, err := profile.RunContext(ctx, l.net, l.test, o.profileConfig())
	if err != nil {
		return nil, err
	}
	sr, err := search.RunContext(ctx, l.net, prof, l.test, o.searchOptions(relDrop))
	if err != nil {
		return nil, err
	}
	xi, _, err := core.OptimizeXi(ctx, prof, sr.SigmaYL, core.Config{Objective: core.MinimizeInputBits})
	if err != nil {
		return nil, err
	}
	ours, err := core.FromXi(prof, sr.SigmaYL, xi, "ours", 0)
	if err != nil {
		return nil, err
	}
	res.PipelineTime = time.Since(t0)
	res.PipelineEvals = sr.Evaluations
	res.OursInputBits = ours.TotalInputBits()
	res.OursMACBits = ours.TotalMACBits()
	res.OursQuantAcc = ours.Validate(l.net, l.test, 0)

	// Dynamic search (reuses the profile only for integer bit ranges —
	// the paper's competitors measure those the same way).
	t0 = time.Now()
	srch, err := baseline.StripesSearch(l.net, prof, l.test, baseline.Options{
		RelDrop: relDrop, EvalImages: o.EvalImages, Workers: o.Workers,
	})
	if err != nil {
		return nil, err
	}
	res.SearchTime = time.Since(t0)
	res.SearchEvals = srch.Evaluations
	res.SearchInputBits = srch.Allocation.TotalInputBits()
	res.SearchMACBits = srch.Allocation.TotalMACBits()
	res.SearchQuantAcc = srch.Allocation.Validate(l.net, l.test, 0)
	return res, nil
}

// String renders the comparison.
func (r *MethodVsSearchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec. VI-A — analytic pipeline vs dynamic search on %s (exact acc %.3f)\n\n", r.Arch, r.ExactAcc)
	fmt.Fprintf(&b, "%-22s %12s %8s %12s %12s %8s\n", "method", "time", "evals", "input bits", "mac bits", "acc")
	fmt.Fprintf(&b, "%-22s %12v %8d %12d %12d %8.3f\n", "ours (profile+σ+ξ)",
		r.PipelineTime.Round(time.Millisecond), r.PipelineEvals, r.OursInputBits, r.OursMACBits, r.OursQuantAcc)
	fmt.Fprintf(&b, "%-22s %12v %8d %12d %12d %8.3f\n", "stripes-style search",
		r.SearchTime.Round(time.Millisecond), r.SearchEvals, r.SearchInputBits, r.SearchMACBits, r.SearchQuantAcc)
	if r.SearchEvals > 0 && r.PipelineEvals > 0 {
		fmt.Fprintf(&b, "\nsearch needs %.1f× more accuracy evaluations than our binary search\n",
			float64(r.SearchEvals)/float64(r.PipelineEvals))
	}
	target := r.ExactAcc * (1 - r.RelDrop)
	fmt.Fprintf(&b, "full-test-set constraint (≥ %.3f): ours %s, search %s",
		target, passFail(r.OursQuantAcc >= target), passFail(r.SearchQuantAcc >= target))
	if r.OursQuantAcc >= target && r.SearchQuantAcc < target {
		b.WriteString("  ← the search overfits its evaluation subset (Sec. I's critique)")
	}
	b.WriteString("\n")
	return b.String()
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
