package service

import (
	"context"
	"fmt"
	"testing"

	"rumor/internal/cachestore"
)

// BenchmarkTieredDiskHit times one disk-tier hit of TieredResultCache:
// the record read, its checksum, the value's decode into a CellResult
// and the promotion. The results are those of a 64-node, 2-trial
// push-pull cell; a one-entry LRU cycled over 256 keys makes every Get
// fall through to disk.
func BenchmarkTieredDiskHit(b *testing.B) {
	cell := CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: "sync",
		Trials: 2, GraphSeed: 1, TrialSeed: 1}
	res, _, err := (&Executor{}).Run(context.Background(), 0, cell)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	open := func() *cachestore.Store {
		store, err := cachestore.Open(cachestore.Options{Dir: dir, KeyVersion: CellKeyVersion})
		if err != nil {
			b.Fatal(err)
		}
		return store
	}
	const keys = 256
	fill := NewTieredResultCache(NewResultCache(1), open())
	for i := 0; i < keys; i++ {
		fill.Put(fmt.Sprintf("key-%03d", i), res)
	}
	if err := fill.Close(); err != nil {
		b.Fatal(err)
	}
	tiered := NewTieredResultCache(NewResultCache(1), open())
	defer tiered.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tiered.Get(fmt.Sprintf("key-%03d", i%keys)); !ok {
			b.Fatal("disk miss")
		}
	}
}
