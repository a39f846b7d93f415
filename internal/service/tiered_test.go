package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rumor/internal/cachestore"
)

func openStore(t *testing.T, dir string) *cachestore.Store {
	t.Helper()
	store, err := cachestore.Open(cachestore.Options{Dir: dir, KeyVersion: CellKeyVersion})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

func testCells(n int) []CellSpec {
	cells := make([]CellSpec, n)
	for i := range cells {
		cells[i] = CellSpec{Family: "complete", N: 32, Protocol: "push", Timing: "sync",
			Trials: 4, GraphSeed: 1, TrialSeed: uint64(i), Source: 0}
	}
	return cells
}

func marshalResults(t *testing.T, results []*CellResult) []byte {
	t.Helper()
	b, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTieredPromoteFromDisk: an LRU miss that the disk tier can serve
// is promoted into the LRU, so the next Get is a memory hit.
func TestTieredPromoteFromDisk(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	tiered := NewTieredResultCache(NewResultCache(0), store)
	res := &CellResult{Key: "k", Times: []float64{1, 2}, N: 8, M: 12}
	tiered.Put("k", res)
	if err := tiered.Flush(); err != nil {
		t.Fatal(err)
	}

	// A fresh LRU over the same store models a restarted process.
	warm := NewTieredResultCache(NewResultCache(0), store)
	got, ok := warm.Get("k")
	if !ok {
		t.Fatal("disk tier missed a flushed record")
	}
	if got.N != 8 || got.M != 12 || len(got.Times) != 2 {
		t.Fatalf("disk round trip mangled the result: %+v", got)
	}
	st := warm.Stats()
	if st.DiskHits != 1 || st.MemHits != 0 || st.Promotions != 1 {
		t.Fatalf("first get: %+v", st)
	}
	if _, ok := warm.Get("k"); !ok {
		t.Fatal("promoted record missed")
	}
	st = warm.Stats()
	if st.MemHits != 1 {
		t.Fatalf("promotion did not serve the second get from memory: %+v", st)
	}
}

// TestTieredNilDiskDegradesToLRU: a TieredResultCache without a store
// behaves exactly like the plain LRU (one wiring path for both).
func TestTieredNilDiskDegradesToLRU(t *testing.T) {
	tiered := NewTieredResultCache(NewResultCache(0), nil)
	tiered.Put("k", &CellResult{Key: "k"})
	if _, ok := tiered.Get("k"); !ok {
		t.Fatal("miss with nil disk tier")
	}
	if _, ok := tiered.Get("absent"); ok {
		t.Fatal("hit for absent key")
	}
	if err := tiered.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tiered.Close(); err != nil {
		t.Fatal(err)
	}
	st := tiered.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Disk != nil {
		t.Fatalf("stats with nil disk: %+v", st)
	}
}

// TestTieredRestartDeterminism: results computed through a tiered
// executor, replayed by a fresh process state over the same directory,
// are byte-identical — and actually come from disk.
func TestTieredRestartDeterminism(t *testing.T) {
	dir := t.TempDir()
	cells := testCells(16)

	store := openStore(t, dir)
	cold := &Executor{Results: NewTieredResultCache(NewResultCache(0), store),
		Graphs: NewGraphCache(0), CellWorkers: 4}
	coldRes, err := cold.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := openStore(t, dir)
	warmCache := NewTieredResultCache(NewResultCache(0), reopened)
	warm := &Executor{Results: warmCache, Graphs: NewGraphCache(0), CellWorkers: 4}
	warmRes, err := warm.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalResults(t, warmRes), marshalResults(t, coldRes); string(got) != string(want) {
		t.Errorf("disk replay diverged from cold run\ncold: %s\nwarm: %s", want, got)
	}
	st := warmCache.Stats()
	if int(st.DiskHits) != len(cells) {
		t.Errorf("want every cell served from disk, got %+v", st)
	}
}

// TestTieredSurvivesTornTail: crash-recovery end to end at the service
// layer — a torn segment tail loses only the torn record; every other
// cell replays from disk and the batch as a whole is byte-identical to
// the cold run.
func TestTieredSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	cells := testCells(8)

	store := openStore(t, dir)
	cold := &Executor{Results: NewTieredResultCache(NewResultCache(0), store),
		Graphs: NewGraphCache(0), CellWorkers: 2}
	coldRes, err := cold.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail mid-record, as a crash during an append would.
	seg := filepath.Join(dir, "seg-00000001.ndjson")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-37], 0o644); err != nil {
		t.Fatal(err)
	}

	reopened := openStore(t, dir)
	if st := reopened.Stats(); st.ReclaimedBytes == 0 || st.Records != len(cells)-1 {
		t.Fatalf("recovery stats after torn tail: %+v", st)
	}
	warmCache := NewTieredResultCache(NewResultCache(0), reopened)
	warm := &Executor{Results: warmCache, Graphs: NewGraphCache(0), CellWorkers: 2}
	warmRes, err := warm.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalResults(t, warmRes), marshalResults(t, coldRes); string(got) != string(want) {
		t.Errorf("post-recovery run diverged from cold run\ncold: %s\nwarm: %s", want, got)
	}
	st := warmCache.Stats()
	if st.DiskHits != uint64(len(cells)-1) || st.Misses != 1 {
		t.Errorf("want %d disk hits + 1 recompute, got %+v", len(cells)-1, st)
	}
}

// TestTieredHealsUndecodableRecord: a disk record whose bytes pass the
// checksum but no longer decode as a CellResult (value schema drift)
// must not shadow the key forever — the tiered Get drops it so the
// recompute's Put writes a fresh record, restoring warm replay.
func TestTieredHealsUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	// CRC-valid JSON that cannot unmarshal into CellResult.
	store.Put("k", []byte(`{"times":"not-an-array"}`))
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	tiered := NewTieredResultCache(NewResultCache(0), store)
	if _, ok := tiered.Get("k"); ok {
		t.Fatal("undecodable record served")
	}
	// The decode is the store's value check: the record is dropped as
	// corrupt, and the lookup is one miss in both tiers.
	if st := tiered.Stats(); st.Misses != 1 || st.DiskHits != 0 ||
		st.Disk.Records != 0 || st.Disk.CorruptRecords != 1 || st.Disk.Hits != 0 || st.Disk.Misses != 1 {
		t.Fatalf("stats after the undecodable read: %+v, disk %+v", st, *st.Disk)
	}
	fresh := &CellResult{Key: "k", Times: []float64{3}}
	tiered.Put("k", fresh)
	if err := tiered.Flush(); err != nil {
		t.Fatal(err)
	}

	// A restarted process must now replay the repaired record.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	warm := NewTieredResultCache(NewResultCache(0), openStore(t, dir))
	got, ok := warm.Get("k")
	if !ok || len(got.Times) != 1 || got.Times[0] != 3 {
		t.Fatalf("repaired record not replayed: %+v, %v", got, ok)
	}
}

// TestTieredStatsConsistentSnapshot is the regression test for torn
// counter reads: under concurrent load, every Stats snapshot must
// satisfy Hits == MemHits + DiskHits — the counters are taken in one
// critical section, not read field by field per tier (per-field
// atomic reads can observe a lookup counted in one tier's counter but
// not yet in the aggregate, breaking the invariant transiently).
func TestTieredStatsConsistentSnapshot(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	// A tiny LRU forces constant evictions, so gets split between
	// memory hits, disk hits (promotions), and misses.
	tiered := NewTieredResultCache(NewResultCache(8), store)

	const workers = 4
	const rounds = 500
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("key-%d", (w*rounds+i)%64)
				if _, ok := tiered.Get(key); !ok {
					tiered.Put(key, &CellResult{Key: key, Times: []float64{float64(i)}})
				}
			}
		}(w)
	}
	var snapshots int
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := tiered.Stats()
			snapshots++
			if s.Hits != s.MemHits+s.DiskHits {
				t.Errorf("torn snapshot: Hits %d != MemHits %d + DiskHits %d", s.Hits, s.MemHits, s.DiskHits)
			}
			if s.Rate < 0 || s.Rate > 1 {
				t.Errorf("hit rate %v out of [0,1]", s.Rate)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-samplerDone
	if snapshots == 0 {
		t.Fatal("sampler never ran")
	}

	// The final quiescent snapshot must account for every lookup.
	s := tiered.Stats()
	if s.Hits+s.Misses != uint64(workers*rounds) {
		t.Errorf("final snapshot dropped lookups: hits %d + misses %d != %d",
			s.Hits, s.Misses, workers*rounds)
	}
}
