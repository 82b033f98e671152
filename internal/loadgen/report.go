package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
	"time"

	"mupod/internal/obs"
)

// Report is the schema of mupod-loadgen's -out JSON file — the durable
// record of one load-generation run.
type Report struct {
	Description    string  `json:"description"`
	Mode           string  `json:"mode"`
	TargetRateRPS  float64 `json:"target_rate_rps,omitempty"`
	Concurrency    int     `json:"concurrency,omitempty"`
	DurationSecs   float64 `json:"duration_seconds"`
	ParetoFraction float64 `json:"pareto_fraction"`

	Scheduled     int64   `json:"scheduled_arrivals,omitempty"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	Shed          int64   `json:"shed_429"`
	ThroughputRPS float64 `json:"throughput_rps"`

	Targets map[string]TargetStats `json:"targets"`
	SLO     *SLOResult             `json:"slo,omitempty"`

	// Tenants and Fairness record a multi-tenant run: per-tenant
	// client/server outcome counts and the weighted-fair verdict.
	Tenants  map[string]TenantReport `json:"tenants,omitempty"`
	Fairness *FairnessResult         `json:"fairness,omitempty"`
}

// TenantReport is one tenant's slice of a run: what the client sent and
// what the daemon admitted, shed and completed (server counts are the
// run's delta of the daemon's /metrics families, so a long-lived daemon
// reports only this run's work).
type TenantReport struct {
	Weight             int     `json:"weight"`
	Requests           int64   `json:"requests"`
	Accepted           int64   `json:"accepted"`
	Shed               int64   `json:"shed_429"`
	ServerAccepted     uint64  `json:"server_accepted"`
	ServerShed         uint64  `json:"server_shed"`
	ServerCompleted    uint64  `json:"server_completed"`
	CompletedPerWeight float64 `json:"completed_per_weight"`
}

// FairnessResult is the weighted-fair gate verdict: each tenant's
// completions divided by its scheduler weight should be equal; MaxSkew
// is max/min of those normalized rates minus 1. Starved means a tenant
// completed nothing at all, which leaves MaxSkew undefined (reported 0)
// and always violates.
type FairnessResult struct {
	Tolerance float64 `json:"tolerance"`
	MaxSkew   float64 `json:"max_skew"`
	Starved   bool    `json:"starved,omitempty"`
	Violated  bool    `json:"violated"`
}

// TargetStats is one target's latency summary in milliseconds.
type TargetStats struct {
	Count  uint64  `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MeanMS float64 `json:"mean_ms"`
	MinMS  float64 `json:"min_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// SLOResult records the p99 gate verdict.
type SLOResult struct {
	P99LimitMS float64 `json:"p99_limit_ms"`
	P99MS      float64 `json:"p99_ms"`
	Violated   bool    `json:"violated"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func stats(s *obs.LatencySnapshot) TargetStats {
	if s == nil || s.N == 0 {
		return TargetStats{}
	}
	return TargetStats{
		Count:  s.N,
		P50MS:  ms(s.Quantile(0.50)),
		P90MS:  ms(s.Quantile(0.90)),
		P99MS:  ms(s.Quantile(0.99)),
		P999MS: ms(s.Quantile(0.999)),
		MeanMS: ms(s.Mean()),
		MinMS:  ms(s.MinDuration()),
		MaxMS:  ms(s.MaxDuration()),
	}
}

// BuildReport reduces a finished run to its durable report, applying
// the p99 SLO gate when one was configured.
func BuildReport(res *Result) *Report {
	rep := &Report{
		Description:    "mupod-loadgen run: client-side submit latency against a live mupodd (open loop measures from the scheduled arrival time, so client-side queueing is included — no coordinated omission).",
		Mode:           res.Opts.Mode,
		DurationSecs:   res.Elapsed.Seconds(),
		ParetoFraction: res.Opts.ParetoFraction,
		Scheduled:      res.Scheduled,
		Requests:       res.Requests,
		Errors:         res.Errors,
		Shed:           res.Shed,
		Targets:        map[string]TargetStats{"all": stats(res.All)},
	}
	if res.Opts.Mode == "open" {
		rep.TargetRateRPS = res.Opts.Rate
	} else {
		rep.Concurrency = res.Opts.Concurrency
	}
	if res.Elapsed > 0 {
		rep.ThroughputRPS = float64(res.Requests) / res.Elapsed.Seconds()
	}
	for name, s := range res.PerTarget {
		if s.N > 0 {
			rep.Targets[name] = stats(s)
		}
	}
	if limit := res.Opts.SLOP99; limit > 0 {
		p99 := res.All.Quantile(0.99)
		rep.SLO = &SLOResult{
			P99LimitMS: ms(limit),
			P99MS:      ms(p99),
			Violated:   p99 > limit,
		}
	}
	return rep
}

// AddTenantStats folds a multi-tenant run's outcome into the report:
// client-side counts from the result, server-side counts as the delta
// between the post- and pre-run /metrics scrapes, and the weighted-fair
// verdict when tolerance > 0. A tenant with zero completions counts as
// an infinite skew — the scheduler starved it outright.
func (r *Report) AddTenantStats(res *Result, before, after map[string]TenantServerStats, tolerance float64) {
	if len(res.Opts.Tenants) == 0 {
		return
	}
	r.Tenants = make(map[string]TenantReport, len(res.Opts.Tenants))
	minRate, maxRate := math.Inf(1), math.Inf(-1)
	for _, ten := range res.Opts.Tenants {
		cs := res.Tenants[ten.Name]
		b, a := before[ten.Name], after[ten.Name]
		tr := TenantReport{
			Weight:          ten.Weight,
			Requests:        cs.Requests,
			Accepted:        cs.Accepted,
			Shed:            cs.Shed,
			ServerAccepted:  a.Accepted - b.Accepted,
			ServerShed:      a.Shed - b.Shed,
			ServerCompleted: a.Completed - b.Completed,
		}
		tr.CompletedPerWeight = float64(tr.ServerCompleted) / float64(ten.Weight)
		r.Tenants[ten.Name] = tr
		minRate = math.Min(minRate, tr.CompletedPerWeight)
		maxRate = math.Max(maxRate, tr.CompletedPerWeight)
	}
	if tolerance <= 0 {
		return
	}
	fr := &FairnessResult{Tolerance: tolerance}
	switch {
	case minRate <= 0:
		fr.Starved = true
		fr.Violated = true
	default:
		fr.MaxSkew = maxRate/minRate - 1
		fr.Violated = fr.MaxSkew > tolerance
	}
	r.Fairness = fr
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the human-readable quantile/throughput table.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "mode=%s duration=%.1fs requests=%d errors=%d shed(429)=%d throughput=%.1f req/s\n",
		r.Mode, r.DurationSecs, r.Requests, r.Errors, r.Shed, r.ThroughputRPS)
	if r.Mode == "open" {
		fmt.Fprintf(w, "target rate=%.1f req/s scheduled=%d\n", r.TargetRateRPS, r.Scheduled)
	} else {
		fmt.Fprintf(w, "concurrency=%d\n", r.Concurrency)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "target\tcount\tp50\tp90\tp99\tp99.9\tmean\tmin\tmax")
	names := make([]string, 0, len(r.Targets))
	for name := range r.Targets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.Targets[name]
		fmt.Fprintf(tw, "%s\t%d\t%.2fms\t%.2fms\t%.2fms\t%.2fms\t%.2fms\t%.2fms\t%.2fms\n",
			name, s.Count, s.P50MS, s.P90MS, s.P99MS, s.P999MS, s.MeanMS, s.MinMS, s.MaxMS)
	}
	tw.Flush()
	if len(r.Tenants) > 0 {
		ttw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(ttw, "tenant\tweight\trequests\taccepted\tshed\tcompleted\tcompleted/weight")
		names := make([]string, 0, len(r.Tenants))
		for name := range r.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t := r.Tenants[name]
			fmt.Fprintf(ttw, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f\n",
				name, t.Weight, t.Requests, t.Accepted, t.Shed, t.ServerCompleted, t.CompletedPerWeight)
		}
		ttw.Flush()
	}
	if r.Fairness != nil {
		verdict := "fair"
		if r.Fairness.Violated {
			verdict = "VIOLATED"
		}
		if r.Fairness.Starved {
			fmt.Fprintf(w, "fairness (tol %.0f%%): %s — a tenant completed nothing\n", r.Fairness.Tolerance*100, verdict)
		} else {
			fmt.Fprintf(w, "fairness (tol %.0f%%): %s (max weighted-completion skew %.1f%%)\n",
				r.Fairness.Tolerance*100, verdict, r.Fairness.MaxSkew*100)
		}
	}
	if r.SLO != nil {
		verdict := "met"
		if r.SLO.Violated {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(w, "SLO p99 <= %.2fms: %s (measured %.2fms)\n", r.SLO.P99LimitMS, verdict, r.SLO.P99MS)
	}
}
