package obs

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events.", "kind", "a")
	c2 := r.Counter("test_events_total", "Events.", "kind", "b")
	g := r.Gauge("test_depth", "Depth.")
	fc := r.FloatCounter("test_busy_seconds_total", "Busy.")
	r.GaugeFunc("test_live", "Live.", func() float64 { return 3 })

	c.Add(2)
	c.Inc()
	c2.Inc()
	g.Set(7)
	g.Add(-2)
	fc.Add(0.25)
	fc.Add(0.25)

	var sb strings.Builder
	r.Write(&sb)
	want := `# HELP test_events_total Events.
# TYPE test_events_total counter
test_events_total{kind="a"} 3
test_events_total{kind="b"} 1
# HELP test_depth Depth.
# TYPE test_depth gauge
test_depth 5
# HELP test_busy_seconds_total Busy.
# TYPE test_busy_seconds_total counter
test_busy_seconds_total 0.5
# HELP test_live Live.
# TYPE test_live gauge
test_live 3
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n got: %q\nwant: %q", sb.String(), want)
	}
}

func TestSameSeriesReturned(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "X.", "k", "v")
	b := r.Counter("x_total", "X.", "k", "v")
	if a != b {
		t.Fatal("same name+labels must return the same series")
	}
}

// parseHistogram pulls the bucket counts, sum and count for one
// histogram series out of exposition text.
func parseHistogram(t *testing.T, text, name, labels string) (les []float64, cum []uint64, sum float64, count uint64) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(text))
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, prefix):
			rest := strings.TrimPrefix(line, prefix)
			var leStr string
			if _, err := fmt.Sscanf(rest, "le=%q", &leStr); err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			le := math.Inf(1)
			if leStr != "+Inf" {
				var err error
				le, err = strconv.ParseFloat(leStr, 64)
				if err != nil {
					t.Fatalf("bad le %q: %v", leStr, err)
				}
			}
			fields := strings.Fields(line)
			n, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket value in %q: %v", line, err)
			}
			les = append(les, le)
			cum = append(cum, n)
		case strings.HasPrefix(line, name+"_sum"):
			fields := strings.Fields(line)
			var err error
			sum, err = strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("bad sum line %q: %v", line, err)
			}
		case strings.HasPrefix(line, name+"_count"):
			fields := strings.Fields(line)
			var err error
			count, err = strconv.ParseUint(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
		}
	}
	if len(les) == 0 {
		t.Fatalf("no buckets found for %s in:\n%s", name, text)
	}
	return les, cum, sum, count
}

// TestHistogramExpositionCorrectness checks a registered
// LatencyHistogram's page against an oracle: cumulative counts per
// bound, _sum and _count. Every value sits at least 1/32 below the
// next bound, so the fold by fine-bucket upper edge cannot lift it
// across that bound.
func TestHistogramExpositionCorrectness(t *testing.T) {
	r := NewRegistry()
	h := r.LatencyHistogram("test_latency_seconds", "Latency.")
	obs := []time.Duration{
		4 * time.Millisecond, 9 * time.Millisecond, 40 * time.Millisecond,
		400 * time.Millisecond, 2 * time.Second, 3 * time.Second, 200 * time.Second,
	}
	var sumNS int64
	for _, v := range obs {
		h.Observe(v)
		sumNS += int64(v)
	}

	var sb strings.Builder
	r.Write(&sb)
	les, cum, sum, count := parseHistogram(t, sb.String(), "test_latency_seconds", "")

	if len(les) != len(DefaultLatencyBuckets)+1 {
		t.Fatalf("%d buckets, want the %d default bounds plus +Inf", len(les), len(DefaultLatencyBuckets))
	}
	if !math.IsInf(les[len(les)-1], 1) {
		t.Fatalf("last bucket is %v, want +Inf", les[len(les)-1])
	}
	for i, le := range les {
		if i < len(DefaultLatencyBuckets) && le != DefaultLatencyBuckets[i] {
			t.Errorf("bound %d = %v, want %v", i, le, DefaultLatencyBuckets[i])
		}
		var want uint64
		for _, v := range obs {
			if v.Seconds() <= le {
				want++
			}
		}
		if cum[i] != want {
			t.Errorf("le=%v bucket = %d, want %d", le, cum[i], want)
		}
	}
	if count != uint64(len(obs)) {
		t.Errorf("_count = %d, want %d", count, len(obs))
	}
	// _sum is the integer-nanosecond total, rendered in seconds.
	if want := float64(sumNS) / float64(time.Second); sum != want {
		t.Errorf("_sum = %v, want %v", sum, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.LatencyHistogram("test_hammer_seconds", "Hammered.")
	const goroutines = 16
	const perG = 2000
	// One goroutine keeps rendering while the others observe, so the
	// race detector sees exposition racing against updates too.
	stop := make(chan struct{})
	rendered := make(chan struct{})
	go func() {
		defer close(rendered)
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				r.Write(&sb)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.Observe(time.Duration(i*perG+j) * 10 * time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-rendered

	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	var sb strings.Builder
	r.Write(&sb)
	_, cum, _, count := parseHistogram(t, sb.String(), "test_hammer_seconds", "")
	if cum[len(cum)-1] != count || count != goroutines*perG {
		t.Fatalf("+Inf=%d _count=%d want %d", cum[len(cum)-1], count, goroutines*perG)
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	var fc *FloatCounter
	var g *Gauge
	c.Add(1)
	c.Inc()
	fc.Add(1)
	g.Set(1)
	g.Add(1)
	if c.Value() != 0 || fc.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil receivers must read as zero")
	}
}

func TestHistogramLabelled(t *testing.T) {
	r := NewRegistry()
	h := r.LatencyHistogram("test_stage_seconds", "Stage.", "stage", "solve")
	h.Observe(1500 * time.Millisecond)
	var sb strings.Builder
	r.Write(&sb)
	for _, want := range []string{
		`test_stage_seconds_bucket{stage="solve",le="1"} 0`,
		`test_stage_seconds_bucket{stage="solve",le="2.5"} 1`,
		`test_stage_seconds_bucket{stage="solve",le="+Inf"} 1`,
		`test_stage_seconds_sum{stage="solve"} 1.5`,
		`test_stage_seconds_count{stage="solve"} 1`,
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, sb.String())
		}
	}
}
