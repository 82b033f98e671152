// Package obs is the pipeline-wide telemetry layer: a process-light
// metrics registry with Prometheus text exposition (counters, gauges,
// log-linear latency histograms), context-carried span tracing
// exportable as JSON and Chrome trace_event format, and a shared
// log/slog setup helper for the cmd tools and the daemon.
//
// Every hook is engineered to be zero-cost when telemetry is disabled:
// all metric methods are safe on a nil receiver (a single predictable
// branch), and Start on a context without a tracer returns a nil
// *Span whose methods are likewise no-ops. The pipeline's bit-identical
// determinism guarantee is unaffected either way — telemetry only
// observes, it never touches RNG streams or reduction order.
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultLatencyBuckets are the upper bounds in seconds (+Inf is
// implicit) that LatencyHistogram series fold onto on a /metrics page,
// covering microsecond cache hits through multi-minute profiling runs —
// the range the serving pipeline's stages span.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Registry is an ordered set of metric families rendered in Prometheus
// text exposition format. Families appear in registration order and
// series within a family in the order their label sets were first
// registered, so output layout is stable — callers can rely on it for
// golden tests and byte-compatible migrations.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

type series interface {
	labelSet() string
	write(w io.Writer, name string)
}

type family struct {
	name, help, typ string
	series          []series
}

// formatLabels renders key/value pairs as `k1="v1",k2="v2"`.
func formatLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	var sb strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", kv[i], kv[i+1])
	}
	return sb.String()
}

// family finds or creates the named family; re-registering a name with
// a different type is a programming error.
func (r *Registry) family(name, help, typ string) *family {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	return f
}

func (f *family) find(labels string) series {
	for _, s := range f.series {
		if s.labelSet() == labels {
			return s
		}
	}
	return nil
}

// writeLine renders one exposition line, eliding the braces when the
// series has no labels.
func writeLine(w io.Writer, name, labels, value string) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// formatFloat matches fmt's %g: shortest representation that
// round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Write renders every family in registration order.
func (r *Registry) Write(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			s.write(w, f.name)
		}
	}
}

// Counter is a monotonically increasing uint64 metric. The zero of the
// type is not usable — obtain one from Registry.Counter. A nil *Counter
// is a valid disabled counter: every method no-ops.
type Counter struct {
	labels string
	v      atomic.Uint64
}

// Counter finds or registers a counter series. labels are key/value
// pairs ("state", "done"); series with distinct label sets share one
// family (name, help and TYPE line).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	ls := formatLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "counter")
	if s := f.find(ls); s != nil {
		return s.(*Counter)
	}
	c := &Counter{labels: ls}
	f.series = append(f.series, c)
	return c
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) labelSet() string { return c.labels }

func (c *Counter) write(w io.Writer, name string) {
	writeLine(w, name, c.labels, strconv.FormatUint(c.v.Load(), 10))
}

// FloatCounter is a monotonically increasing float64 metric (e.g.
// cumulative busy seconds). A nil *FloatCounter no-ops.
type FloatCounter struct {
	labels string
	bits   atomic.Uint64
}

// FloatCounter finds or registers a float counter series.
func (r *Registry) FloatCounter(name, help string, labels ...string) *FloatCounter {
	ls := formatLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "counter")
	if s := f.find(ls); s != nil {
		return s.(*FloatCounter)
	}
	c := &FloatCounter{labels: ls}
	f.series = append(f.series, c)
	return c
}

// Add increments the counter by v (CAS loop). No-op on a nil receiver.
func (c *FloatCounter) Add(v float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current total (0 on a nil receiver).
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

func (c *FloatCounter) labelSet() string { return c.labels }

func (c *FloatCounter) write(w io.Writer, name string) {
	writeLine(w, name, c.labels, formatFloat(c.Value()))
}

// Gauge is a settable int64 metric. A nil *Gauge no-ops.
type Gauge struct {
	labels string
	v      atomic.Int64
}

// Gauge finds or registers a settable gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	ls := formatLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "gauge")
	if s := f.find(ls); s != nil {
		return s.(*Gauge)
	}
	g := &Gauge{labels: ls}
	f.series = append(f.series, g)
	return g
}

// Set replaces the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by d (negative to decrement). No-op on nil.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) labelSet() string { return g.labels }

func (g *Gauge) write(w io.Writer, name string) {
	writeLine(w, name, g.labels, strconv.FormatInt(g.v.Load(), 10))
}

// gaugeFunc samples its value at exposition time — for state already
// owned elsewhere (queue depths, cache sizes, build info constants).
type gaugeFunc struct {
	labels string
	fn     func() float64
}

// GaugeFunc registers a gauge whose value is computed by fn at every
// Write. fn must be safe for concurrent use and must not call back
// into this registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	ls := formatLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "gauge")
	if f.find(ls) != nil {
		panic(fmt.Sprintf("obs: gauge func %s{%s} registered twice", name, ls))
	}
	f.series = append(f.series, &gaugeFunc{labels: ls, fn: fn})
}

func (g *gaugeFunc) labelSet() string { return g.labels }

func (g *gaugeFunc) write(w io.Writer, name string) {
	writeLine(w, name, g.labels, formatFloat(g.fn()))
}

// writeCumulativeBuckets renders a LatencyHistogram series folded onto
// bounds: cumulative `le` buckets, the +Inf bucket, _sum and _count.
// counts holds one entry per bound plus a final overflow entry.
func writeCumulativeBuckets(w io.Writer, name, labels string, bounds []float64, counts []uint64, sum float64, n uint64) {
	cum := uint64(0)
	for i, le := range bounds {
		cum += counts[i]
		writeLine(w, name+"_bucket", joinLabels(labels, fmt.Sprintf("le=\"%g\"", le)), strconv.FormatUint(cum, 10))
	}
	cum += counts[len(bounds)]
	writeLine(w, name+"_bucket", joinLabels(labels, `le="+Inf"`), strconv.FormatUint(cum, 10))
	writeLine(w, name+"_sum", labels, formatFloat(sum))
	writeLine(w, name+"_count", labels, strconv.FormatUint(n, 10))
}
