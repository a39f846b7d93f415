package service

import (
	"container/list"
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

// ResultCache is a thread-safe LRU of completed cell results keyed by
// the canonical cell hash. Because every cell is a pure function of its
// spec, a hit is an exact replay of the computation — the service never
// needs invalidation, only eviction.
type ResultCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	hits     uint64
	misses   uint64
}

type resultEntry struct {
	key string
	res *CellResult
}

// NewResultCache returns an LRU holding up to capacity cell results.
// capacity <= 0 selects a default of 4096.
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &ResultCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the cached result for key, if present. The caller must
// not mutate the returned result (clone it to re-index).
func (c *ResultCache) Get(key string) (*CellResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*resultEntry).res, true
}

// Put stores a result, evicting the least recently used entry if the
// cache is full.
func (c *ResultCache) Put(key string, res *CellResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*resultEntry).res = res
		return
	}
	c.items[key] = c.ll.PushFront(&resultEntry{key: key, res: res})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*resultEntry).key)
	}
}

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

// Stats returns current counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return snapshotStats(c.ll.Len(), c.hits, c.misses)
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func snapshotStats(size int, hits, misses uint64) CacheStats {
	s := CacheStats{Size: size, Hits: hits, Misses: misses}
	if total := hits + misses; total > 0 {
		s.Rate = float64(hits) / float64(total)
	}
	return s
}

// GraphCache is a thread-safe LRU of constructed graph instances keyed
// by (family, size, graph seed), with duplicate suppression: concurrent
// requests for the same key block on a single build instead of each
// constructing their own adjacency. Graphs are immutable after
// construction, so a shared instance is safe across concurrent cells.
type GraphCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[string]*list.Element
	hits     uint64
	misses   uint64
}

type graphEntry struct {
	key   string
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
	return &GraphCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the graph instance for the cell, building it at most once
// per key no matter how many goroutines ask concurrently. A failed
// build is not cached; the next request retries.
func (c *GraphCache) Get(cell CellSpec) (*graph.Graph, error) {
	g, _, err := c.get(cell)
	return g, err
}

// get is Get, also reporting how long this call spent in BuildGraph: 0
// for a hit, and for a caller that waited on another's build. A nil
// cache builds every time.
func (c *GraphCache) get(cell CellSpec) (*graph.Graph, time.Duration, error) {
	if c == nil {
		start := time.Now()
		g, err := BuildGraph(cell)
		return g, time.Since(start), err
	}
	key := cell.GraphKey()
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		entry := el.Value.(*graphEntry)
		c.mu.Unlock()
		<-entry.ready
		return entry.g, 0, entry.err
	}
	c.misses++
	entry := &graphEntry{key: key, ready: make(chan struct{})}
	c.items[key] = c.ll.PushFront(entry)
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*graphEntry).key)
	}
	c.mu.Unlock()

	start := time.Now()
	entry.g, entry.err = BuildGraph(cell)
	built := time.Since(start)
	close(entry.ready)
	if entry.err != nil {
		c.mu.Lock()
		if el, ok := c.items[key]; ok && el.Value == entry {
			c.ll.Remove(el)
			delete(c.items, key)
		}
		c.mu.Unlock()
	}
	return entry.g, built, entry.err
}

// Stats returns current counters.
func (c *GraphCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return snapshotStats(c.ll.Len(), c.hits, c.misses)
}

// BuildGraph constructs the cell's graph instance directly, bypassing
// any cache.
func BuildGraph(cell CellSpec) (*graph.Graph, error) {
	fam, err := harness.FamilyByName(cell.Family)
	if err != nil {
		return nil, err
	}
	return fam.Build(cell.N, cell.GraphSeed)
}
