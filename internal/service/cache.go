package service

import (
	"container/list"
	"context"
	"sync"
	"time"

	"rumor/internal/cachestore"
	"rumor/internal/graph"
	"rumor/internal/harness"
)

// ResultStore is the completed-cell cache surface the executor runs
// against: the single-tier in-memory LRU (ResultCache) and the
// LRU-over-disk combination (TieredResultCache) both implement it.
// Implementations must be safe for concurrent use, and Stats must
// return one internally consistent snapshot (hit and miss counters
// taken together, not field by field).
type ResultStore interface {
	// Get returns the cached result for key. The caller must not
	// mutate the returned result (clone it to re-index).
	Get(key string) (*CellResult, bool)
	// Put stores a result under its canonical key.
	Put(key string, res *CellResult)
	// Stats returns current counters.
	Stats() CacheStats
}

// lru is the list + map + counters both caches stand on: a thread-safe
// map from string keys to V that evicts the least recently used entry
// past capacity and counts every lookup as a hit or a miss.
type lru[V comparable] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // of *lruEntry[V]; front = most recently used
	items    map[string]*list.Element
	hits     uint64
	misses   uint64
}

type lruEntry[V comparable] struct {
	key string
	val V
}

func newLRU[V comparable](capacity int) *lru[V] {
	return &lru[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns key's value and marks it most recently used. On a miss a
// non-nil fill makes the value stored under key: lookup and insert are
// one critical section, so of any number of concurrent callers exactly
// one sees the miss.
func (c *lru[V]) get(key string, fill func() V) (val V, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	c.misses++
	if fill != nil {
		val = fill()
		c.insert(key, val)
	}
	return val, false
}

// put stores val under key, as the most recently used entry.
func (c *lru[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = val
		return
	}
	c.insert(key, val)
}

// insert adds an absent key and evicts down to capacity; c.mu is held.
func (c *lru[V]) insert(key string, val V) {
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
}

// remove deletes key if it still holds val.
func (c *lru[V]) remove(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok && el.Value.(*lruEntry[V]).val == val {
		c.ll.Remove(el)
		delete(c.items, key)
	}
}

// stats is one consistent snapshot: size and both counters under one lock.
func (c *lru[V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{Size: c.ll.Len(), Hits: c.hits, Misses: c.misses}
	if total := s.Hits + s.Misses; total > 0 {
		s.Rate = float64(s.Hits) / float64(total)
	}
	return s
}

// ResultCache is a thread-safe LRU of completed cell results keyed by
// the canonical cell hash. Because every cell is a pure function of its
// spec, a hit is an exact replay of the computation — the service never
// needs invalidation, only eviction.
type ResultCache struct {
	lru *lru[*CellResult]
}

// NewResultCache returns an LRU holding up to capacity cell results.
// capacity <= 0 selects a default of 4096.
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &ResultCache{lru: newLRU[*CellResult](capacity)}
}

// Get returns the cached result for key, if present. The caller must
// not mutate the returned result (clone it to re-index).
func (c *ResultCache) Get(key string) (*CellResult, bool) { return c.lru.get(key, nil) }

// Put stores a result, evicting the least recently used entry if the
// cache is full.
func (c *ResultCache) Put(key string, res *CellResult) { c.lru.put(key, res) }

// Stats returns current counters.
func (c *ResultCache) Stats() CacheStats { return c.lru.stats() }

// Len returns the number of cached entries.
func (c *ResultCache) Len() int { return c.lru.stats().Size }

// CacheStats is a point-in-time snapshot of cache counters. Every
// implementation takes the whole snapshot under one lock, so the
// counters are mutually consistent: Hits + Misses always equals the
// number of lookups observed at the snapshot instant, and for tiered
// caches Hits always equals MemHits + DiskHits.
type CacheStats struct {
	Size   int     `json:"size"`
	Hits   uint64  `json:"hits"`
	Misses uint64  `json:"misses"`
	Rate   float64 `json:"hit_rate"`

	// Tier breakdown, populated by TieredResultCache (zero/omitted for
	// single-tier caches): MemHits and DiskHits partition Hits by the
	// tier that served them, and Promotions counts disk hits copied up
	// into the LRU.
	MemHits    uint64 `json:"mem_hits,omitempty"`
	DiskHits   uint64 `json:"disk_hits,omitempty"`
	Promotions uint64 `json:"promotions,omitempty"`
	// Disk carries the persistent tier's own counters (segments,
	// bytes, compactions, ...), when one is attached.
	Disk *cachestore.Stats `json:"disk,omitempty"`
}

// GraphCache is a thread-safe LRU of constructed graph instances keyed
// by (family, size, graph seed), with duplicate suppression: concurrent
// requests for the same key block on a single build instead of each
// constructing their own adjacency. Graphs are immutable after
// construction, so a shared instance is safe across concurrent cells.
type GraphCache struct {
	lru *lru[*graphEntry]
	// build is BuildGraph, except in a test that controls the build.
	build func(CellSpec) (*graph.Graph, error)
}

type graphEntry struct {
	ready chan struct{} // closed once g/err are set
	g     *graph.Graph
	err   error
}

// NewGraphCache returns an LRU holding up to capacity graphs.
// capacity <= 0 selects a default of 64.
func NewGraphCache(capacity int) *GraphCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &GraphCache{lru: newLRU[*graphEntry](capacity), build: BuildGraph}
}

// Get returns the graph instance for the cell, building it at most once
// per key no matter how many goroutines ask concurrently. A failed
// build is not cached; the next request retries.
func (c *GraphCache) Get(cell CellSpec) (*graph.Graph, error) {
	g, _, err := c.get(context.Background(), cell)
	return g, err
}

// get is Get, also reporting how long this call spent in BuildGraph: 0
// for a hit, and for a caller that waited on another's build. A waiter
// whose ctx ends returns ctx's error at once; the build it was waiting
// on carries on for everyone else. A nil cache builds every time.
func (c *GraphCache) get(ctx context.Context, cell CellSpec) (*graph.Graph, time.Duration, error) {
	if c == nil {
		start := time.Now()
		g, err := BuildGraph(cell)
		return g, time.Since(start), err
	}
	key := cell.GraphKey()
	entry, hit := c.lru.get(key, func() *graphEntry { return &graphEntry{ready: make(chan struct{})} })
	if hit {
		select {
		case <-entry.ready:
			return entry.g, 0, entry.err
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	start := time.Now()
	entry.g, entry.err = c.build(cell)
	built := time.Since(start)
	close(entry.ready)
	if entry.err != nil {
		c.lru.remove(key, entry)
	}
	return entry.g, built, entry.err
}

// Stats returns current counters.
func (c *GraphCache) Stats() CacheStats { return c.lru.stats() }

// BuildGraph constructs the cell's graph instance directly, bypassing
// any cache.
func BuildGraph(cell CellSpec) (*graph.Graph, error) {
	fam, err := harness.FamilyByName(cell.Family)
	if err != nil {
		return nil, err
	}
	return fam.Build(cell.N, cell.GraphSeed)
}
