package serve

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Cache metrics. Hit/miss/eviction order depends on request interleaving
// under concurrent load, so they are Nondet for deterministic snapshots;
// the size gauge is an instantaneous reading. cache_misses counts actual
// loader runs — exactly one per singleflight — while cache_flight_waits
// counts the callers that joined an already-in-flight load, so
// hits/(hits+misses) is a true cache-hit rate under any concurrency.
var (
	mCacheHits        = obs.NewCounter("serve", "cache_hits", obs.Nondet())
	mCacheMisses      = obs.NewCounter("serve", "cache_misses", obs.Nondet())
	mCacheFlightWaits = obs.NewCounter("serve", "cache_flight_waits", obs.Nondet())
	mCacheEvictions   = obs.NewCounter("serve", "cache_evictions", obs.Nondet())
	gCacheSize        = obs.NewGauge("serve", "cache_size", obs.Nondet())
)

// analysisCache is an LRU of core.Analysis keyed by design digest — the
// daemon's reason to exist: location analysis runs once per design, then
// every issue/trace request reuses the cached result. An Analysis is
// immutable after construction (the shared verifier inside it has its own
// lock), so one cached value may serve any number of concurrent requests.
//
// Misses are deduplicated: concurrent requests for the same evicted digest
// run the loader once and share its result (singleflight), so a popular
// design being re-analysed never stampedes the worker pool.
type analysisCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // digest → element holding *cacheEntry

	flight map[string]*flightCall // in-progress loads by digest
}

type cacheEntry struct {
	digest string
	a      *core.Analysis
}

type flightCall struct {
	done chan struct{}
	a    *core.Analysis
	err  error
}

// newAnalysisCache creates a cache holding at most capacity analyses
// (capacity ≤ 0 means 1).
func newAnalysisCache(capacity int) *analysisCache {
	if capacity <= 0 {
		capacity = 1
	}
	return &analysisCache{
		cap:    capacity,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
		flight: make(map[string]*flightCall),
	}
}

// get returns the cached analysis for digest, marking it most recently
// used, or nil.
func (c *analysisCache) get(digest string) *core.Analysis {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[digest]; ok {
		c.ll.MoveToFront(el)
		mCacheHits.Inc()
		return el.Value.(*cacheEntry).a
	}
	mCacheMisses.Inc()
	return nil
}

// add inserts digest, evicting the least recently used entry beyond
// capacity, and returns the analysis the cache now serves for it. A digest
// already present keeps its resident analysis and is only marked most
// recently used: equal digests mean equal analyses, and the resident one
// carries the warm state (its shared verifier: proved window certificates
// or the fallback CEC session) a replacement would throw away.
func (c *analysisCache) add(digest string, a *core.Analysis) *core.Analysis {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addLocked(digest, a)
}

func (c *analysisCache) addLocked(digest string, a *core.Analysis) *core.Analysis {
	if el, ok := c.items[digest]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).a
	}
	c.items[digest] = c.ll.PushFront(&cacheEntry{digest: digest, a: a})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*cacheEntry).digest)
		mCacheEvictions.Inc()
	}
	gCacheSize.Set(int64(c.ll.Len()))
	return a
}

// len returns the number of cached analyses.
func (c *analysisCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// getOrLoad returns the cached analysis or runs load once per digest,
// sharing the result (and error) with every concurrent caller. Successful
// loads are inserted into the cache; errors are not cached.
//
// The load runs in its own goroutine, detached from any one caller's
// context: ctx only bounds how long THIS caller waits for the shared
// result. A caller whose context dies mid-flight gets its own ctx error
// back while the load keeps running for the surviving waiters (and for the
// cache) — one impatient client cancelling must not fail a stampede of
// healthy ones, so the loader itself must not capture a request context
// (the serve layer gives it a detached deadline instead). The singleflight
// still guarantees at most one load per digest is ever in flight, so the
// detached goroutine cannot pile up.
func (c *analysisCache) getOrLoad(ctx context.Context, digest string, load func() (*core.Analysis, error)) (*core.Analysis, error) {
	c.mu.Lock()
	if el, ok := c.items[digest]; ok {
		c.ll.MoveToFront(el)
		mCacheHits.Inc()
		a := el.Value.(*cacheEntry).a
		c.mu.Unlock()
		return a, nil
	}
	f, inFlight := c.flight[digest]
	if inFlight {
		mCacheFlightWaits.Inc()
	} else {
		// One miss per actual load, not per waiter that joined it.
		mCacheMisses.Inc()
		f = &flightCall{done: make(chan struct{})}
		c.flight[digest] = f
		go func() {
			f.a, f.err = load()
			c.mu.Lock()
			delete(c.flight, digest)
			if f.err == nil {
				f.a = c.addLocked(digest, f.a)
			}
			c.mu.Unlock()
			close(f.done)
		}()
	}
	c.mu.Unlock()

	select {
	case <-f.done:
		return f.a, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
