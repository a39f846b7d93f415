package service

import (
	"encoding/json"
	"sync"

	"rumor/internal/cachestore"
)

// TieredResultCache layers the persistent cell-result store
// (internal/cachestore) under the in-memory LRU: a Get tries the LRU,
// then the disk store, promoting disk hits into the LRU; a Put lands
// in the LRU and is appended to disk write-behind (unless the store
// already holds the key — results are pure functions of their key, so
// a re-append could only duplicate bytes). Because every Put is
// appended, an LRU eviction never loses the only copy: evicted entries
// remain servable from the disk tier, and a process restart starts
// warm.
//
// The tier hit/miss counters live here, under one mutex, rather than
// being derived from the two tiers' own counters: a snapshot read
// field by field across tiers could tear under load (an in-flight Get
// counted as a miss in one tier but not yet as a hit in the other).
// Stats takes the whole snapshot in one critical section, preserving
// the invariants Hits == MemHits+DiskHits and Hits+Misses == lookups.
type TieredResultCache struct {
	mem  *ResultCache
	disk *cachestore.Store

	mu         sync.Mutex
	memHits    uint64
	diskHits   uint64
	misses     uint64
	promotions uint64
}

// NewTieredResultCache layers disk under mem. disk may be nil, which
// degrades to the plain LRU (so callers can wire one code path for
// both configurations). mem must be non-nil.
func NewTieredResultCache(mem *ResultCache, disk *cachestore.Store) *TieredResultCache {
	return &TieredResultCache{mem: mem, disk: disk}
}

// Get implements ResultStore.
func (c *TieredResultCache) Get(key string) (*CellResult, bool) {
	if res, ok := c.mem.Get(key); ok {
		c.mu.Lock()
		c.memHits++
		c.mu.Unlock()
		return res, true
	}
	if c.disk != nil {
		// The decode is the value's one JSON check. Checksum-valid bytes
		// that do not decode as a CellResult (a value schema drift) are
		// dropped by the store, so the recompute's Put writes a fresh
		// record instead of the stale one shadowing the key. A read the
		// store retries decodes afresh: DecodeResult starts from zero.
		var res CellResult
		decode := func(v []byte) error { return DecodeResult(v, &res) }
		if _, ok := c.disk.Get(key, decode); ok {
			// Promote without re-appending: the record is already
			// durable.
			c.mem.Put(key, &res)
			c.mu.Lock()
			c.diskHits++
			c.promotions++
			c.mu.Unlock()
			return &res, true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Put implements ResultStore: the result lands in the LRU immediately
// and is appended to the disk tier write-behind.
func (c *TieredResultCache) Put(key string, res *CellResult) {
	c.mem.Put(key, res)
	if c.disk == nil || c.disk.Has(key) {
		return
	}
	raw, ok := appendResult(nil, res)
	if !ok {
		var err error
		if raw, err = json.Marshal(res); err != nil {
			return
		}
	}
	c.disk.Put(key, raw)
}

// Stats implements ResultStore: one consistent cross-tier snapshot.
func (c *TieredResultCache) Stats() CacheStats {
	c.mu.Lock()
	s := CacheStats{
		MemHits:    c.memHits,
		DiskHits:   c.diskHits,
		Promotions: c.promotions,
		Hits:       c.memHits + c.diskHits,
		Misses:     c.misses,
	}
	c.mu.Unlock()
	s.Size = c.mem.Len()
	if total := s.Hits + s.Misses; total > 0 {
		s.Rate = float64(s.Hits) / float64(total)
	}
	if c.disk != nil {
		ds := c.disk.Stats()
		s.Disk = &ds
	}
	return s
}

// Flush blocks until every write-behind append is durable.
func (c *TieredResultCache) Flush() error {
	if c.disk == nil {
		return nil
	}
	return c.disk.Flush()
}

// Close flushes and closes the disk tier (the LRU needs no teardown).
func (c *TieredResultCache) Close() error {
	if c.disk == nil {
		return nil
	}
	return c.disk.Close()
}
