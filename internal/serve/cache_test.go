package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mupod/internal/profile"
)

// fakeProfile builds a profile with a tunable ProfileCost: points raw
// measurement samples across two layers.
func fakeProfile(name string, points int) *profile.Profile {
	mk := func(id int) profile.LayerProfile {
		return profile.LayerProfile{
			Source: profile.Source{
				NodeID: id,
				Name:   fmt.Sprintf("%s/l%d", name, id),
				Lambda: 1,
				Deltas: make([]float64, points),
				Sigmas: make([]float64, points),
			},
			Kind: "conv",
		}
	}
	return &profile.Profile{NetName: name, Layers: []profile.LayerProfile{mk(1), mk(2)}}
}

func mustAdd(t *testing.T, c *ProfileCache, key string, p *profile.Profile) {
	t.Helper()
	_, _, err := c.GetOrCompute(context.Background(), key, func(context.Context) (*profile.Profile, error) {
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sumCosts recomputes what the byte account should hold by replaying
// the cost of every entry the cache still reports.
func cacheInvariant(t *testing.T, c *ProfileCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var want int64
	n := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := c.entries[el.Value.(string)]
		if e == nil || e.elem == nil {
			t.Fatalf("LRU key %q not backed by an accounted entry", el.Value)
		}
		want += e.cost
		n++
	}
	if c.bytes != want {
		t.Fatalf("CachedBytes = %d, Σcost of %d resident entries = %d", c.bytes, n, want)
	}
	if c.bytes < 0 {
		t.Fatalf("CachedBytes went negative: %d", c.bytes)
	}
}

func TestCacheBytesAccounting(t *testing.T) {
	small := fakeProfile("small", 4)
	c := NewProfileCacheBytes(8, 4*ProfileCost(small))
	for i := 0; i < 3; i++ {
		mustAdd(t, c, fmt.Sprintf("k%d", i), small)
	}
	if got, want := c.CachedBytes(), 3*ProfileCost(small); got != want {
		t.Fatalf("CachedBytes = %d, want %d", got, want)
	}
	// A fourth entry fits exactly; a fifth evicts the oldest.
	mustAdd(t, c, "k3", small)
	mustAdd(t, c, "k4", small)
	if got, want := c.CachedBytes(), 4*ProfileCost(small); got != want {
		t.Fatalf("after byte eviction: CachedBytes = %d, want %d", got, want)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	cacheInvariant(t, c)
}

// An entry over-weight on its own is inserted and then immediately
// evicted; its cost must leave the byte account exactly once (a double
// decrement drives CachedBytes negative, a missed one leaves it stuck
// above zero forever).
func TestCacheOverweightEntryDecrementsOnce(t *testing.T) {
	small := fakeProfile("small", 4)
	huge := fakeProfile("huge", 100000)
	c := NewProfileCacheBytes(8, 2*ProfileCost(small))
	mustAdd(t, c, "resident", small)
	mustAdd(t, c, "whale", huge)
	// The whale displaced everything, including itself.
	if c.Len() != 0 {
		t.Fatalf("Len = %d after over-weight insert, want 0", c.Len())
	}
	if got := c.CachedBytes(); got != 0 {
		t.Fatalf("CachedBytes = %d after over-weight insert, want 0", got)
	}
	// The cache still works afterwards.
	mustAdd(t, c, "again", small)
	if got, want := c.CachedBytes(), ProfileCost(small); got != want {
		t.Fatalf("CachedBytes = %d, want %d", got, want)
	}
	cacheInvariant(t, c)
}

// Hammer GetOrCompute from many goroutines with a byte budget small
// enough that evictions (including self-evictions of over-weight
// entries) race with hits and inserts. Run under -race in CI; after the
// dust settles the byte account must equal the summed cost of exactly
// the resident entries.
func TestCacheConcurrentEvictionAccounting(t *testing.T) {
	small := fakeProfile("small", 4)
	huge := fakeProfile("huge", 50000)
	c := NewProfileCacheBytes(4, 3*ProfileCost(small))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%6)
				p := small
				if (g+i)%13 == 0 {
					key = fmt.Sprintf("whale%d", i%3)
					p = huge
				}
				if _, _, err := c.GetOrCompute(context.Background(), key, func(context.Context) (*profile.Profile, error) {
					return p, nil
				}); err != nil {
					t.Error(err)
					return
				}
				// Interleave reads of both accounting views.
				if c.CachedBytes() < 0 {
					t.Error("CachedBytes went negative mid-run")
					return
				}
				_ = c.Len()
			}
		}(g)
	}
	wg.Wait()
	cacheInvariant(t, c)
}

// A compute that panics must release its key: the accounting stays
// balanced, nothing is cached, and the next GetOrCompute on that key
// recomputes instead of waiting on an entry that will never be ready.
func TestCachePanickedComputeReleasesKey(t *testing.T) {
	small := fakeProfile("small", 4)
	c := NewProfileCacheBytes(4, 0)
	mustAdd(t, c, "resident", small)
	func() {
		defer func() {
			if r := recover(); r != "kaboom" {
				t.Fatalf("recovered %v, want the compute's panic to propagate", r)
			}
		}()
		c.GetOrCompute(context.Background(), "k", func(context.Context) (*profile.Profile, error) { //nolint:errcheck
			panic("kaboom")
		})
	}()
	if got, want := c.Len(), 1; got != want {
		t.Fatalf("Len = %d after a panicked compute, want %d", got, want)
	}
	if got, want := c.CachedBytes(), ProfileCost(small); got != want {
		t.Fatalf("CachedBytes = %d after a panicked compute, want %d", got, want)
	}
	cacheInvariant(t, c)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, hit, err := c.GetOrCompute(ctx, "k", func(context.Context) (*profile.Profile, error) {
		return small, nil
	})
	if err != nil || hit || got != small {
		t.Fatalf("after the panic: (%p, hit=%v, err=%v), want a fresh compute of %p", got, hit, err, small)
	}
	cacheInvariant(t, c)
}
