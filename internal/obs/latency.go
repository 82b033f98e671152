package obs

import (
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// LatencyHistogram is an HDR-style log-linear-bucketed latency
// recorder. Durations are bucketed by their power-of-two magnitude in
// nanoseconds, each magnitude split into 32 linear sub-buckets, so any
// recorded value is represented with at most 1/32 (≈3.1%) relative
// error across the whole nanosecond-to-hours range, with no bucket
// layout to configure. It is the registry's one histogram type.
//
// Observe is lock-free (two atomic adds plus a CAS each for min/max),
// which is what the HTTP hot path and a load generator firing tens of
// thousands of requests per second need. Snapshot copies the counters
// into a mergeable, quantile-queryable LatencySnapshot. A nil
// *LatencyHistogram no-ops, matching the rest of the package.
type LatencyHistogram struct {
	labels string // set when registered as a Registry series

	counts [numLatBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Int64 // nanoseconds; wraps after ~292 years of latency
	min    atomic.Int64 // nanoseconds; math.MaxInt64 until first Observe
	max    atomic.Int64 // nanoseconds
}

// Log-linear layout: values 0..2·sub-1 ns get their own bucket (the
// linear region); beyond that the range [2^k, 2^(k+1)) is split into
// latSubBuckets equal sub-buckets. 63-bit nanoseconds need buckets for
// k = latSubBits+1 .. 62.
const (
	latSubBits    = 5
	latSubBuckets = 1 << latSubBits   // 32
	latLinear     = 2 * latSubBuckets // 64 one-ns-wide buckets
	numLatBuckets = latLinear + (62-latSubBits)*latSubBuckets
)

// NewLatencyHistogram creates an unregistered histogram (client-side
// recording, e.g. a load generator). Use Registry.LatencyHistogram for
// one that renders on a /metrics page.
func NewLatencyHistogram() *LatencyHistogram {
	h := &LatencyHistogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// LatencyHistogram finds or registers a latency-histogram series. Its
// exposition renders the fine-grained counts folded onto the
// DefaultLatencyBuckets bounds (full resolution stays available via
// Snapshot), reusing the standard cumulative-`le` layout.
func (r *Registry) LatencyHistogram(name, help string, labels ...string) *LatencyHistogram {
	ls := formatLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "histogram")
	if s := f.find(ls); s != nil {
		return s.(*LatencyHistogram)
	}
	h := NewLatencyHistogram()
	h.labels = ls
	f.series = append(f.series, h)
	return h
}

// latBucket maps nanoseconds to a bucket index.
func latBucket(ns int64) int {
	if ns < latLinear {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	k := bits.Len64(uint64(ns)) - 1 // MSB position, >= latSubBits+1
	sub := (ns - 1<<k) >> (k - latSubBits)
	return latLinear + (k-latSubBits-1)*latSubBuckets + int(sub)
}

// latUpperNS is the inclusive upper bound of a bucket: the largest
// value the bucket can hold, which quantile estimation reports so
// estimates err high by at most the sub-bucket width.
func latUpperNS(i int) int64 {
	if i < latLinear {
		return int64(i)
	}
	i -= latLinear
	k := i/latSubBuckets + latSubBits + 1
	sub := int64(i%latSubBuckets) + 1
	return 1<<k + sub<<(k-latSubBits) - 1
}

// Observe records one duration. Negative durations (clock skew) clamp
// to zero. Safe for concurrent use; no-op on a nil receiver.
func (h *LatencyHistogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[latBucket(ns)].Add(1)
	h.n.Add(1)
	h.sum.Add(ns)
	for {
		old := h.min.Load()
		if ns >= old || h.min.CompareAndSwap(old, ns) {
			break
		}
	}
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
}

// ObserveSeconds records a latency given in seconds.
func (h *LatencyHistogram) ObserveSeconds(s float64) {
	h.Observe(time.Duration(s * float64(time.Second)))
}

// Count returns the number of observations (0 on a nil receiver).
func (h *LatencyHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Snapshot copies the current counters. The snapshot is immutable
// afterwards (concurrent Observes keep going into the histogram) and
// nil-safe: a nil receiver yields an empty snapshot.
func (h *LatencyHistogram) Snapshot() *LatencySnapshot {
	s := &LatencySnapshot{Min: math.MaxInt64}
	if h == nil {
		return s
	}
	// Counts are read first: a racing Observe can then at worst make
	// N/Sum cover one more sample than Counts, never fewer — Quantile
	// clamps ranks to the bucketed population, so estimates stay valid.
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			s.Counts[i] = c
			s.bucketed += c
		}
	}
	s.N = h.n.Load()
	s.SumNS = h.sum.Load()
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	if s.bucketed < s.N {
		s.N = s.bucketed
	}
	return s
}

// Quantile estimates the q-quantile of everything observed so far.
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	return h.Snapshot().Quantile(q)
}

// LatencySnapshot is a point-in-time copy of a LatencyHistogram,
// suitable for merging across sources (workers, request kinds) and for
// exact-count quantile queries.
type LatencySnapshot struct {
	Counts   [numLatBuckets]uint64
	N        uint64
	SumNS    int64
	Min, Max int64 // nanoseconds; Min is MaxInt64 while empty
	bucketed uint64
}

// Merge folds other into s (both bucket layouts are identical by
// construction). A nil or empty other is a no-op, and the zero-value
// LatencySnapshot is a valid empty accumulator: its meaningless Min is
// overwritten by the first non-empty merge.
func (s *LatencySnapshot) Merge(other *LatencySnapshot) {
	if other == nil || other.N == 0 {
		return
	}
	wasEmpty := s.N == 0
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
	s.N += other.N
	s.bucketed += other.bucketed
	s.SumNS += other.SumNS
	if wasEmpty || other.Min < s.Min {
		s.Min = other.Min
	}
	if other.Max > s.Max {
		s.Max = other.Max
	}
}

// Quantile returns the smallest bucket upper bound covering at least
// ⌈q·N⌉ observations — the exact count-based quantile of the bucketed
// data, an overestimate of the true sample quantile by at most one
// sub-bucket width (≤1/32 relative). q outside (0,1] clamps; an empty
// snapshot returns 0.
func (s *LatencySnapshot) Quantile(q float64) time.Duration {
	if s == nil || s.N == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.N)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.N {
		rank = s.N
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			return time.Duration(latUpperNS(i))
		}
	}
	return time.Duration(s.Max)
}

// Mean returns the average observed latency (0 while empty).
func (s *LatencySnapshot) Mean() time.Duration {
	if s == nil || s.N == 0 {
		return 0
	}
	return time.Duration(s.SumNS / int64(s.N))
}

// MinDuration returns the smallest observation (0 while empty).
func (s *LatencySnapshot) MinDuration() time.Duration {
	if s == nil || s.N == 0 || s.Min == math.MaxInt64 {
		return 0
	}
	return time.Duration(s.Min)
}

// MaxDuration returns the largest observation (0 while empty).
func (s *LatencySnapshot) MaxDuration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.Max)
}

func (h *LatencyHistogram) labelSet() string { return h.labels }

// write folds the fine-grained log-linear counts onto the
// DefaultLatencyBuckets bounds and renders the standard cumulative-`le`
// histogram layout. A fine bucket straddling a coarse bound lands in
// the higher coarse bucket (its upper edge decides), so the rendered
// distribution errs pessimistic by at most one sub-bucket (≤1/32).
func (h *LatencyHistogram) write(w io.Writer, name string) {
	s := h.Snapshot()
	bounds := DefaultLatencyBuckets
	coarse := make([]uint64, len(bounds)+1)
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		upper := float64(latUpperNS(i)) / float64(time.Second)
		j := 0
		for j < len(bounds) && upper > bounds[j] {
			j++
		}
		coarse[j] += c
	}
	writeCumulativeBuckets(w, name, h.labels, bounds, coarse, float64(s.SumNS)/float64(time.Second), s.N)
}
