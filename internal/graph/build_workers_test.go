package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"rumor/internal/xrand"
)

// stage returns a builder on n vertices holding edges, fed in order.
func stage(n int, edges [][2]NodeID) *Builder {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b
}

func sameCSR(a, b *Graph) bool {
	return slices.Equal(a.offsets, b.offsets) && slices.Equal(a.adj, b.adj)
}

// pairOrder is G(n, p)'s edge set in the order GNP emits it, drawn pair
// by pair.
func pairOrder(n int, p float64, rng *xrand.RNG) [][2]NodeID {
	var edges [][2]NodeID
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Bernoulli(p) {
				edges = append(edges, [2]NodeID{NodeID(u), NodeID(v)})
			}
		}
	}
	return edges
}

// Any feed built on w workers is the serial build's bytes: in-order
// feeds (no sort pass) and unordered or repeated ones (the sort pass
// then sees each list in the order the scatter filled it), feeds that
// cross chunk boundaries, and worker counts that leave ranges empty —
// a star's centre holds half the slots, so at w = 7 it is worker 0's
// whole range and workers 1 and 2 get none — or exceed n.
func TestStreamedBuildWorkersMatchSerial(t *testing.T) {
	rng := xrand.New(2024)
	random := func(n, m int) [][2]NodeID {
		edges := make([][2]NodeID, 0, m)
		for len(edges) < m {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				edges = append(edges, [2]NodeID{u, v})
			}
		}
		return edges
	}
	ordered := pairOrder(1000, 0.02, rng)
	unordered := slices.Clone(ordered)
	rng.Shuffle(len(unordered), func(i, j int) { unordered[i], unordered[j] = unordered[j], unordered[i] })
	for i := range unordered {
		if rng.Bernoulli(0.5) {
			unordered[i] = [2]NodeID{unordered[i][1], unordered[i][0]}
		}
	}
	var star, starBackwards [][2]NodeID
	for v := NodeID(1); v < 1000; v++ {
		star = append(star, [2]NodeID{0, v})
		starBackwards = append(starBackwards, [2]NodeID{1000 - v, 0})
	}
	for _, tc := range []struct {
		name  string
		n     int
		edges [][2]NodeID
	}{
		{"empty/n0", 0, nil},
		{"no-edges/n5", 5, nil},
		{"one-edge/n2", 2, [][2]NodeID{{0, 1}}},
		{"triangle-twice/n3", 3, [][2]NodeID{{0, 1}, {1, 2}, {2, 0}, {1, 0}, {2, 1}, {0, 2}}},
		{"ordered/n1000", 1000, ordered},
		{"unordered/n1000", 1000, unordered},
		{"duplicates/n200", 200, random(200, 6000)},
		// Three chunks, every one of them crossing every range.
		{"chunk-crossing/n300", 300, random(300, 2*builderChunkEdges+17)},
		{"chunk-crossing-ordered/n600", 600, pairOrder(600, 0.5, rng)},
		{"star/n1000", 1000, star},
		{"star-backwards/n1000", 1000, starBackwards},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := stage(tc.n, tc.edges).build(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 3, 7} {
				got, err := stage(tc.n, tc.edges).build(w)
				if err != nil {
					t.Fatal(err)
				}
				if !sameCSR(got, want) {
					t.Errorf("w=%d: CSR differs from the serial build", w)
				}
			}
		})
	}
}

// referencePairs is the geometric-skip enumeration as one loop drawing
// as it goes, kept verbatim from before the walk took blocks of skips.
// It returns the edges, the number of skips drawn and whether the last
// one ended the walk through the maxSkip break.
func referencePairs(n int, q float64, rng *xrand.RNG) (edges [][2]NodeID, draws int, broke bool) {
	logq := math.Log1p(-q)
	maxSkip := float64(n)*float64(n) + 2
	u, v := 0, 0
	for u < n-1 {
		fskip := math.Log(rng.Float64Open())/logq + 1
		draws++
		if fskip > maxSkip {
			return edges, draws, true
		}
		v += int(fskip)
		for v >= n && u < n-1 {
			u++
			v = v - n + u + 1
		}
		if u < n-1 && v < n {
			edges = append(edges, [2]NodeID{NodeID(u), NodeID(v)})
		}
	}
	return edges, draws, false
}

// The pipelined enumeration gives the reference's edges and leaves the
// generator where the reference leaves it, for every block size and
// wherever in a block the walk ends: on the block's first draw, in its
// middle, on its last, and through the maxSkip break. The seeds are
// searched until every block size has ended each way.
func TestStreamedBuildPairsPipelineMatchesSerial(t *testing.T) {
	blocks := []int{0, 1, 2, 7, 64}
	type ending struct {
		block int
		where string
	}
	seen := map[ending]bool{}
	for _, tc := range []struct {
		n int
		q float64
	}{
		{2, 0.5},
		{50, 0.1},
		{50, 1.0 / 2500}, // skips pass maxSkip with probability ~1/e
		{300, 0.05},
	} {
		for seed := uint64(1); seed <= 150; seed++ {
			ref := xrand.New(seed)
			edges, draws, broke := referencePairs(tc.n, tc.q, ref)
			want := mustG(t)(stage(tc.n, edges).build(1))
			for _, block := range blocks {
				rng := xrand.New(seed)
				b := NewBuilder(tc.n)
				addPairsBernoulliBlocks(b, tc.n, tc.q, rng, block)
				got := mustG(t)(b.build(1))
				if !sameCSR(got, want) {
					t.Fatalf("n=%d q=%v seed=%d block=%d: CSR differs from the reference", tc.n, tc.q, seed, block)
				}
				next := *ref
				if g, w := rng.Uint64(), next.Uint64(); g != w {
					t.Fatalf("n=%d q=%v seed=%d block=%d: next draw %#x, want %#x", tc.n, tc.q, seed, block, g, w)
				}
				if block == 0 {
					continue
				}
				k := (draws - 1) % block
				seen[ending{block, "first"}] = seen[ending{block, "first"}] || k == 0
				seen[ending{block, "last"}] = seen[ending{block, "last"}] || k == block-1
				seen[ending{block, "mid"}] = seen[ending{block, "mid"}] || (k > 0 && k < block-1)
				if broke {
					seen[ending{block, "maxSkip"}] = true
				}
			}
		}
	}
	for _, block := range blocks[1:] {
		for _, where := range []string{"first", "mid", "last", "maxSkip"} {
			if !seen[ending{block, where}] && !(where == "mid" && block <= 2) {
				t.Errorf("block=%d: no walk ended %s", block, where)
			}
		}
	}
}

// The size rules: below the gates, or on one core, Build runs on one
// worker and addPairsBernoulli draws in the caller's goroutine.
func TestStreamedBuildSizeRules(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 1 << 12
	at := float64(pairsPipelineMinEdges) / (float64(n) * float64(n-1) / 2)
	for _, tc := range []struct {
		procs, edges, workers int
		q                     float64
		block                 int
	}{
		{2, buildParallelMinEdges - 1, 1, 0.99 * at, 0},
		{2, buildParallelMinEdges, 2, 1.01 * at, pairsSkipBlock},
		{1, buildParallelMinEdges, 1, 1.01 * at, 0},
	} {
		runtime.GOMAXPROCS(tc.procs)
		if w := buildWorkers(tc.edges); w != tc.workers {
			t.Errorf("GOMAXPROCS %d: buildWorkers(%d) = %d, want %d", tc.procs, tc.edges, w, tc.workers)
		}
		if blk := pairsBlock(n, tc.q); blk != tc.block {
			t.Errorf("GOMAXPROCS %d: pairsBlock(%d, %v) = %d, want %d", tc.procs, n, tc.q, blk, tc.block)
		}
	}
}

// Every goroutine the pipelined enumeration and a multi-worker build
// start has exited once they return: the count returns to its baseline.
func TestStreamedBuildGoroutinesReturn(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, block := range []int{1, 7, 64} {
		for seed := uint64(1); seed <= 20; seed++ {
			b := NewBuilder(300)
			addPairsBernoulliBlocks(b, 300, 0.05, xrand.New(seed), block)
			if _, err := b.build(3); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A goroutine that has signalled its end may not have exited yet.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// BenchmarkBuildWorkers is Build's count pass, scatter and (none, the
// feed is in pair order) sort on one worker and on GOMAXPROCS workers,
// at staged edge counts around buildParallelMinEdges: the crossover the
// constant is chosen from. Staging is not timed.
func BenchmarkBuildWorkers(b *testing.B) {
	for _, m := range []int{1 << 14, 1 << 16, 1 << 17, 1 << 18, 1 << 20, 1 << 22} {
		n := m / 8 // average degree 16
		src := NewBuilder(n)
		addPairsBernoulliBlocks(src, n, 16.0/float64(n-1), xrand.New(1), 0)
		for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("m%d/w%d", m, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					bld := *src
					bld.chunks = make([][][2]NodeID, len(src.chunks))
					for j, c := range src.chunks {
						bld.chunks[j] = slices.Clone(c)
					}
					b.StartTimer()
					if _, err := bld.build(w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPairsPipeline is the enumeration alone (draws, walk and
// staging, no Build) drawing in the caller's goroutine and on the
// helper, at expected edge counts around pairsPipelineMinEdges.
func BenchmarkPairsPipeline(b *testing.B) {
	for _, m := range []int{1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22} {
		n := m / 8
		q := 16.0 / float64(n-1)
		for _, block := range []int{0, pairsSkipBlock} {
			b.Run(fmt.Sprintf("m%d/block%d", m, block), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					addPairsBernoulliBlocks(NewBuilder(n), n, q, xrand.New(uint64(i)), block)
				}
			})
		}
	}
}
