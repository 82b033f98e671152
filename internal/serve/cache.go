package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"mupod/internal/dataset"
	"mupod/internal/kernels"
	"mupod/internal/netdesc"
	"mupod/internal/nn"
	"mupod/internal/profile"
)

// ProfileKey content-addresses a profiling run: it hashes the network
// topology (its netdesc serialization), every trained parameter value,
// the exact profiling images the run would consume, and the normalized
// profile.Config. Two submissions with equal keys are guaranteed to
// produce the identical (deterministic) λ_K/θ_K profile, so the daemon
// computes it once and serves every later request from the cache.
func ProfileKey(net *nn.Network, ds *dataset.Dataset, cfg profile.Config) string {
	cfg = cfg.Normalized()
	// Worker counts and the kernel policy never change the
	// (bit-identical) profile, so they must not split the cache:
	// requests differing only in parallelism share one entry.
	cfg.Workers = 0
	cfg.Kernel = kernels.Policy{}
	h := sha256.New()

	// Topology. The DSL covers every layer the repository builds; if a
	// caller constructed something it cannot express, fall back to the
	// human-readable summary (still topology-complete).
	if err := netdesc.Write(h, net); err != nil {
		io.WriteString(h, net.Summary())
	}

	// Trained parameters — the "weights seed" in content form.
	for _, p := range net.Params() {
		io.WriteString(h, p.Name)
		hashFloats(h, p.Value.Data)
	}

	// The profiling inputs: profile.Run consumes exactly the first
	// cfg.Images images.
	n := cfg.Images
	if n > ds.Len() {
		n = ds.Len()
	}
	if n > 0 {
		hashFloats(h, ds.Batch(0, n).Data)
	}

	fmt.Fprintf(h, "%#v", cfg)
	return hex.EncodeToString(h.Sum(nil))
}

func hashFloats(w io.Writer, data []float64) {
	var buf [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		w.Write(buf[:])
	}
}

// flightCache is the content-addressed LRU behind both the profile
// cache and the Pareto front cache, with single-flight semantics:
// concurrent requests for one key share one compute instead of racing
// to run it twice. Completed entries are bounded by count (cap) and,
// when cost is set, also by their summed cost (maxB).
type flightCache[V any] struct {
	cost func(V) int64 // nil: bounded by count only

	mu      sync.Mutex
	entries map[string]*flightEntry[V]
	lru     *list.List // of string keys, front = most recent
	cap     int
	maxB    int64 // cost budget; 0 = unlimited
	bytes   int64 // Σ cost over entries with elem != nil
}

// flightEntry is one (possibly still computing) cached value. ready is
// closed when val/err are final; failed entries are removed from the
// map before ready closes, so waiters retry as new leaders.
type flightEntry[V any] struct {
	ready chan struct{}
	val   V
	err   error
	elem  *list.Element // LRU position; nil while computing or after eviction
	cost  int64         // counted in flightCache.bytes iff elem != nil
}

// errPanicked stands in for the outcome of a compute that panicked, so
// the deferred bookkeeping around it counts the panic as a failure.
var errPanicked = errors.New("serve: compute panicked")

// ProfileCache is the in-memory content-addressed profile store, bounded
// by count and optionally by summed ProfileCost.
type ProfileCache = flightCache[*profile.Profile]

// newFlightCache creates a cache holding up to capacity completed values
// (default 64 when capacity <= 0); with cost set and maxBytes > 0, their
// summed cost is budgeted too.
func newFlightCache[V any](capacity int, maxBytes int64, cost func(V) int64) *flightCache[V] {
	if capacity <= 0 {
		capacity = 64
	}
	return &flightCache[V]{
		cost:    cost,
		entries: make(map[string]*flightEntry[V]),
		lru:     list.New(),
		cap:     capacity,
		maxB:    maxBytes,
	}
}

// NewProfileCache creates a cache holding up to capacity completed
// profiles (default 64 when capacity <= 0) with no byte budget.
func NewProfileCache(capacity int) *ProfileCache {
	return NewProfileCacheBytes(capacity, 0)
}

// NewProfileCacheBytes is NewProfileCache with an additional byte
// budget: whenever the summed ProfileCost of completed entries exceeds
// maxBytes (> 0), least-recently-used entries are evicted — including,
// for an entry over-weight on its own, the entry just inserted.
func NewProfileCacheBytes(capacity int, maxBytes int64) *ProfileCache {
	return newFlightCache(capacity, maxBytes, ProfileCost)
}

// Len returns the number of completed cached values.
func (c *flightCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// CachedBytes returns the summed cost of the completed cached values.
// The invariant maintained under any interleaving of Get/Add:
// CachedBytes() == Σ cost over exactly the entries Len() counts (each
// eviction decrements the sum exactly once).
func (c *flightCache[V]) CachedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// evictLocked removes one completed entry from the LRU list, the byte
// account, and the map. The elem != nil guard makes the byte decrement
// idempotent: an entry leaves the account exactly once no matter how
// the count cap and the byte budget interleave. Callers hold c.mu.
func (c *flightCache[V]) evictLocked(key string) {
	e := c.entries[key]
	if e == nil || e.elem == nil {
		return
	}
	c.lru.Remove(e.elem)
	e.elem = nil
	c.bytes -= e.cost
	delete(c.entries, key)
}

// ProfileCost estimates the resident size of a cached profile in bytes:
// the measurement slices and strings dominate, the fixed-size struct
// fields and map/list bookkeeping are charged at a flat rate. The
// estimate only has to be consistent (same profile → same cost) for the
// eviction accounting to balance.
func ProfileCost(p *profile.Profile) int64 {
	const (
		entryOverhead = 256 // flightEntry + map bucket + list element + key
		layerFixed    = 176 // LayerProfile value fields + index map entry
	)
	if p == nil {
		return entryOverhead
	}
	n := int64(entryOverhead) + int64(len(p.NetName))
	for i := range p.Layers {
		lp := &p.Layers[i]
		n += layerFixed + int64(len(lp.Name)) + int64(len(lp.Kind))
		n += 8 * int64(len(lp.Deltas)+len(lp.Sigmas))
	}
	return n
}

// GetOrCompute returns the cached value for key, or runs compute to
// fill it. hit reports whether the result came from the cache (either
// already stored, or by waiting on another request's in-flight
// computation). A failed computation is not cached; one waiter takes
// over as the new leader and recomputes.
func (c *flightCache[V]) GetOrCompute(ctx context.Context, key string, compute func(context.Context) (V, error)) (val V, hit bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			if e.elem != nil {
				c.lru.MoveToFront(e.elem)
			}
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return val, false, ctx.Err()
			}
			if e.err != nil {
				// The leader failed and removed the entry; loop to
				// either find a newer entry or become the leader.
				continue
			}
			return e.val, true, nil
		}
		e := &flightEntry[V]{ready: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()
		return c.lead(ctx, key, e, compute)
	}
}

// lead runs compute for the new entry e and settles it: a value joins
// the LRU, a failure leaves the map. A panic in compute settles as a
// failure, so the key is released for the waiters, and then propagates.
func (c *flightCache[V]) lead(ctx context.Context, key string, e *flightEntry[V], compute func(context.Context) (V, error)) (V, bool, error) {
	e.err = errPanicked
	defer func() {
		if e.err == nil && c.cost != nil {
			e.cost = c.cost(e.val)
		}
		c.mu.Lock()
		if e.err != nil {
			delete(c.entries, key)
		} else {
			e.elem = c.lru.PushFront(key)
			c.bytes += e.cost
			for c.lru.Len() > c.cap || (c.maxB > 0 && c.bytes > c.maxB && c.lru.Len() > 0) {
				c.evictLocked(c.lru.Back().Value.(string))
			}
		}
		c.mu.Unlock()
		close(e.ready)
	}()
	e.val, e.err = compute(ctx)
	return e.val, false, e.err
}
