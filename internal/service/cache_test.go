package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rumor/internal/graph"
)

func TestResultCacheLRU(t *testing.T) {
	c := NewResultCache(2)
	put := func(key string) { c.Put(key, &CellResult{Key: key}) }
	put("a")
	put("b")
	if _, ok := c.Get("a"); !ok { // a is now most recent
		t.Fatal("a missing")
	}
	put("c") // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted out of LRU order")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c missing")
	}
	st := c.Stats()
	if st.Size != 2 {
		t.Errorf("size = %d, want 2", st.Size)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", st.Hits, st.Misses)
	}
	if st.Rate <= 0.74 || st.Rate >= 0.76 {
		t.Errorf("hit rate = %v, want 0.75", st.Rate)
	}
}

func TestResultCachePutExistingRefreshes(t *testing.T) {
	c := NewResultCache(2)
	c.Put("a", &CellResult{N: 1})
	c.Put("b", &CellResult{N: 2})
	c.Put("a", &CellResult{N: 3}) // refresh, a most recent
	c.Put("c", &CellResult{N: 4}) // evicts b
	if res, ok := c.Get("a"); !ok || res.N != 3 {
		t.Errorf("a = %+v, %v; want N=3 present", res, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
}

func TestGraphCacheSharesInstance(t *testing.T) {
	c := NewGraphCache(4)
	cell := CellSpec{Family: "complete", N: 16, GraphSeed: 1}
	g1, err := c.Get(cell)
	if err != nil {
		t.Fatal(err)
	}
	// A different protocol/timing/trials cell on the same sweep point
	// must return the identical instance.
	other := cell
	other.Protocol = "push"
	other.Timing = TimingAsync
	other.Trials = 99
	g2, err := c.Get(other)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("same graph key built twice")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestGraphCacheConcurrentSingleBuild(t *testing.T) {
	c := NewGraphCache(4)
	cell := CellSpec{Family: "gnp", N: 64, GraphSeed: 3}
	const goroutines = 16
	var wg sync.WaitGroup
	var firstErr atomic.Value
	graphs := make([]interface{ NumNodes() int }, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := c.Get(cell)
			if err != nil {
				firstErr.Store(err)
				return
			}
			graphs[i] = g
		}(i)
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < goroutines; i++ {
		if graphs[i] != graphs[0] {
			t.Fatal("concurrent gets returned distinct instances")
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly one build", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Errorf("hits = %d, want %d", st.Hits, goroutines-1)
	}
}

func TestGraphCacheEviction(t *testing.T) {
	c := NewGraphCache(2)
	for i := 0; i < 4; i++ {
		if _, err := c.Get(CellSpec{Family: "complete", N: 8 + i, GraphSeed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Size != 2 {
		t.Errorf("size = %d, want 2", st.Size)
	}
	// Oldest entries rebuilt on demand.
	if _, err := c.Get(CellSpec{Family: "complete", N: 8, GraphSeed: 1}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 5 {
		t.Errorf("misses = %d, want 5 (4 cold + 1 rebuild)", st.Misses)
	}
}

func TestGraphCacheBuildErrorNotCached(t *testing.T) {
	c := NewGraphCache(4)
	bad := CellSpec{Family: "no-such-family", N: 8, GraphSeed: 1}
	if _, err := c.Get(bad); err == nil {
		t.Fatal("unknown family built")
	}
	if st := c.Stats(); st.Size != 0 {
		t.Errorf("failed build cached (size %d)", st.Size)
	}
}

// A cell parked on another cell's graph build honours its own ctx: the
// cancelled waiter returns while the build is still blocked, the build
// carries on, and a later caller gets the one graph it produced.
func TestGraphCacheWaiterHonoursContext(t *testing.T) {
	c := NewGraphCache(4)
	started, release := make(chan struct{}), make(chan struct{})
	c.build = func(cell CellSpec) (*graph.Graph, error) {
		close(started)
		<-release
		return BuildGraph(cell)
	}
	cell := CellSpec{Family: "complete", N: 8, Protocol: "push-pull", Timing: TimingSync, Trials: 1, GraphSeed: 1, TrialSeed: 1}
	built := make(chan *graph.Graph, 1)
	go func() {
		g, _ := c.Get(cell)
		built <- g
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, _, err := (&Executor{Graphs: c}).Run(ctx, 0, cell)
		waiter <- err
	}()
	for c.Stats().Hits == 0 { // until the waiter has found the entry and parks on it
		select {
		case err := <-waiter:
			t.Fatalf("the waiter returned %v before it was cancelled", err)
		default:
			runtime.Gosched()
		}
	}
	cancel()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter is still held by the other cell's build")
	}

	close(release)
	first := <-built
	g, spent, err := c.get(context.Background(), cell)
	if err != nil || g == nil || g != first || spent != 0 {
		t.Fatalf("after the build: graph %v (builder got %v), spent %v, err %v", g, first, spent, err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/1: the key was built more than once", st.Hits, st.Misses)
	}
}

func BenchmarkResultCacheGet(b *testing.B) {
	c := NewResultCache(1024)
	for i := 0; i < 1024; i++ {
		c.Put(fmt.Sprintf("key-%d", i), &CellResult{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(fmt.Sprintf("key-%d", i%1024))
	}
}
