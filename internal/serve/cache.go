package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// cacheEntry is one (possibly still computing) cached profile. ready is
// closed when prof/err are final; failed entries are removed from the
// map before ready closes, so waiters retry as new leaders.
type cacheEntry struct {
	ready chan struct{}
	prof  *profile.Profile
	err   error
	elem  *list.Element // LRU position; nil while computing or after eviction
	cost  int64         // ProfileCost(prof); counted in ProfileCache.bytes iff elem != nil
}

// ProfileCache is the in-memory content-addressed profile store with
// single-flight semantics: concurrent submissions of the same network
// share one profiling run instead of racing to compute it twice.
// Completed entries are bounded both by count (cap) and, optionally, by
// their summed estimated size (maxBytes).
type ProfileCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	lru     *list.List // of string keys, front = most recent
	cap     int
	maxB    int64 // byte budget; 0 = unlimited
	bytes   int64 // Σ cost over entries with elem != nil
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
	if capacity <= 0 {
		capacity = 64
	}
	return &ProfileCache{
		entries: make(map[string]*cacheEntry),
		lru:     list.New(),
		cap:     capacity,
		maxB:    maxBytes,
	}
}

// Len returns the number of completed cached profiles.
func (c *ProfileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// CachedBytes returns the summed estimated size of the completed cached
// profiles. The invariant maintained under any interleaving of Get/Add:
// CachedBytes() == Σ ProfileCost over exactly the entries Len() counts
// (each eviction decrements the sum exactly once).
func (c *ProfileCache) CachedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// evictLocked removes one completed entry from the LRU list, the byte
// account, and the map. The elem != nil guard makes the byte decrement
// idempotent: an entry leaves the account exactly once no matter how
// the count cap and the byte budget interleave. Callers hold c.mu.
func (c *ProfileCache) evictLocked(key string) {
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
		entryOverhead = 256 // cacheEntry + map bucket + list element + key
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

// GetOrCompute returns the cached profile for key, or runs compute to
// fill it. hit reports whether the result came from the cache (either
// already stored, or by waiting on another request's in-flight
// computation). A failed computation is not cached; one waiter takes
// over as the new leader and recomputes.
func (c *ProfileCache) GetOrCompute(ctx context.Context, key string, compute func(context.Context) (*profile.Profile, error)) (prof *profile.Profile, hit bool, err error) {
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
				return nil, false, ctx.Err()
			}
			if e.err != nil {
				// The leader failed and removed the entry; loop to
				// either find a newer entry or become the leader.
				continue
			}
			return e.prof, true, nil
		}
		e := &cacheEntry{ready: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()

		e.prof, e.err = compute(ctx)
		c.mu.Lock()
		if e.err != nil {
			delete(c.entries, key)
		} else {
			e.cost = ProfileCost(e.prof)
			e.elem = c.lru.PushFront(key)
			c.bytes += e.cost
			for c.lru.Len() > c.cap || (c.maxB > 0 && c.bytes > c.maxB && c.lru.Len() > 0) {
				c.evictLocked(c.lru.Back().Value.(string))
			}
		}
		c.mu.Unlock()
		close(e.ready)
		return e.prof, false, e.err
	}
}
