package graph

import (
	"fmt"
	"math"
	"runtime"

	"rumor/internal/xrand"
)

// GNP returns an Erdős–Rényi random graph G(n, p): every unordered pair
// is an edge independently with probability p. Generation is O(n + m)
// using geometric skipping over the ordered pair sequence.
func GNP(n int, p float64, rng *xrand.RNG) (*Graph, error) {
	if n < 1 || p < 0 || p > 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("%w: GNP(%d, %v)", ErrInvalidParam, n, p)
	}
	b := NewBuilder(n).SetName(fmt.Sprintf("gnp(%d,p=%.4g)", n, p))
	addPairsBernoulli(b, n, p, rng)
	return b.Build()
}

// GNPConnected generates G(n, p) graphs until a connected instance is
// found, up to maxAttempts (at least 1). Useful for p at or above the
// connectivity threshold log(n)/n where failures are rare.
func GNPConnected(n int, p float64, rng *xrand.RNG, maxAttempts int) (*Graph, error) {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var g *Graph
	var err error
	for i := 0; i < maxAttempts; i++ {
		g, err = GNP(n, p, rng)
		if err != nil {
			return nil, err
		}
		if IsConnected(g) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: GNP(%d, %v) not connected after %d attempts", n, p, maxAttempts)
}

// RandomRegular returns a random d-regular simple graph on n vertices via
// the configuration model: d stubs per vertex are paired uniformly at
// random, and self loops / parallel edges are then removed by degree-
// preserving edge swaps with uniformly chosen partner edges.
//
// Requires n*d even, d < n. The swap-repair step makes the distribution
// only approximately uniform over d-regular graphs, which is sufficient
// for the simulation experiments here.
func RandomRegular(n, d int, rng *xrand.RNG) (*Graph, error) {
	if n < 2 || d < 1 || d >= n || (n*d)%2 != 0 {
		return nil, fmt.Errorf("%w: RandomRegular(%d, %d)", ErrInvalidParam, n, d)
	}
	stubs := make([]NodeID, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, NodeID(v))
		}
	}
	type edge struct{ u, v NodeID }
	edges := make([]edge, 0, n*d/2)
	pair := func() {
		rng.Shuffle32(stubs)
		edges = edges[:0]
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u > v {
				u, v = v, u
			}
			edges = append(edges, edge{u, v})
		}
	}
	seen := make(map[edge]int, n*d/2)
	countBad := func() int {
		for k := range seen {
			delete(seen, k)
		}
		bad := 0
		for _, e := range edges {
			if e.u == e.v {
				bad++
				continue
			}
			seen[e]++
			if seen[e] > 1 {
				bad++
			}
		}
		return bad
	}
	isBad := func(e edge) bool { return e.u == e.v || seen[e] > 1 }
	const maxRounds = 200
	pair()
	for round := 0; round < maxRounds; round++ {
		if countBad() == 0 {
			b := NewBuilder(n).SetName(fmt.Sprintf("regular(%d,d=%d)", n, d))
			for _, e := range edges {
				b.AddEdge(e.u, e.v)
			}
			return b.Build()
		}
		// One repair sweep: for each bad edge, swap with a random edge.
		for i := range edges {
			if !isBad(edges[i]) {
				continue
			}
			for attempt := 0; attempt < 50; attempt++ {
				j := rng.Intn(len(edges))
				if j == i {
					continue
				}
				a, c := edges[i], edges[j]
				// Swap to (a.u, c.u) and (a.v, c.v).
				n1 := edge{a.u, c.u}
				n2 := edge{a.v, c.v}
				if n1.u > n1.v {
					n1.u, n1.v = n1.v, n1.u
				}
				if n2.u > n2.v {
					n2.u, n2.v = n2.v, n2.u
				}
				if n1.u == n1.v || n2.u == n2.v {
					continue
				}
				if seen[n1] > 0 || seen[n2] > 0 {
					continue
				}
				// Apply the swap and update multiplicity bookkeeping.
				seen[a]--
				seen[c]--
				seen[n1]++
				seen[n2]++
				edges[i], edges[j] = n1, n2
				break
			}
		}
	}
	return nil, fmt.Errorf("graph: RandomRegular(%d, %d) repair did not converge", n, d)
}

// addPairsBernoulli adds each unordered pair {u, v} as an edge
// independently with probability q (GNP, and the fresh edges of a Perturb
// epoch). Pairs (u, v), u < v, are enumerated in lexicographic order,
// jumping ahead by Geometric(q) positions between successive edges, so
// the cost is O(n + m) and the Builder receives its edges in order.
//
// From pairsPipelineMinEdges (1<<15) expected edges on, where the
// pipeline wins on a 2-vCPU host idle or loaded, and with more than one
// core, the skips are drawn on a helper goroutine while this one walks
// the pairs (see pipelined); the edges and where rng is left are the
// same either way.
func addPairsBernoulli(b *Builder, n int, q float64, rng *xrand.RNG) {
	addPairsBernoulliBlocks(b, n, q, rng, pairsBlock(n, q))
}

// pairsPipelineMinEdges is the expected edge count q·n(n−1)/2 from which
// addPairsBernoulli draws its skips on a helper goroutine. Below it the
// goroutine, the wait for the first block and the block drawn past the
// last pair cost more than the overlap saves. BenchmarkPairsPipeline on
// a 2-vCPU host: idle, the caller's goroutine is ahead at 1<<13 expected
// edges (0.35 ms against 0.43) and the pipeline from 1<<14 on (0.65
// against 0.76; 0.09 s against 0.19 at 1<<22); with the other core kept
// busy, as in a full batch, the caller's goroutine is still ahead at
// 1<<14 (1.13 ms against 1.36) and the pipeline from 1<<15 on (2.2
// against 2.4; 6.2 against 7.5 at 1<<17). The gate is the larger
// crossover. The quick suite's G(n,p) graphs, a resample or Perturb
// epoch's included, expect fewer than 1<<12 edges.
const pairsPipelineMinEdges = 1 << 15

// pairsSkipBlock is the number of skips in one block of the pipeline.
// Smaller blocks pay a goroutine wake-up per few draws (1<<10: 0.13 s
// at 1<<22 expected edges); larger ones make the walk wait longer for
// the first block (1<<14: 2.3 ms against 1.6 at 1<<16).
const pairsSkipBlock = 1 << 12

// pairsBlock is addPairsBernoulli's block size for G(n, q): 0 (draw in
// the caller's goroutine) below pairsPipelineMinEdges expected edges or
// on one core, else pairsSkipBlock.
func pairsBlock(n int, q float64) int {
	if q*float64(n)*float64(n-1)/2 < pairsPipelineMinEdges || runtime.GOMAXPROCS(0) < 2 {
		return 0
	}
	return pairsSkipBlock
}

// addPairsBernoulliBlocks is addPairsBernoulli with an explicit block
// size: 0 draws each skip in the caller's goroutine just before the walk
// takes it; block > 0 has a helper goroutine draw blocks of that many
// skips ahead of the walk, on a copy of rng.
func addPairsBernoulliBlocks(b *Builder, n int, q float64, rng *xrand.RNG, block int) {
	if q <= 0 || n < 2 {
		return
	}
	if q >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(NodeID(u), NodeID(v))
			}
		}
		return
	}
	logq := math.Log1p(-q)
	w := pairWalk{b: b, n: n, maxSkip: float64(n)*float64(n) + 2}
	if block == 0 {
		var skip [1]float64
		for done := false; !done; {
			skip[0] = math.Log(rng.Float64Open())/logq + 1
			_, done = w.take(skip[:])
		}
		return
	}
	w.pipelined(rng, logq, block)
}

// pairWalk is the enumeration's cursor: the last pair (u, v) reached,
// with v counting on past n - 1 until the walk carries it to a later u.
type pairWalk struct {
	b       *Builder
	n       int
	u, v    int
	maxSkip float64
}

// take advances the walk by each skip in turn, adding the pair it lands
// on as an edge, and returns how many skips it used and whether the
// enumeration is over: a skip passed the last pair, or one passed
// maxSkip, more than every remaining pair, which ends it too.
func (w *pairWalk) take(skips []float64) (int, bool) {
	n, u, v := w.n, w.u, w.v
	for i, fskip := range skips {
		if fskip > w.maxSkip {
			return i + 1, true
		}
		v += int(fskip)
		for v >= n && u < n-1 {
			u++
			v = v - n + u + 1
		}
		if u >= n-1 {
			return i + 1, true
		}
		w.b.AddEdge(NodeID(u), NodeID(v))
	}
	w.u, w.v = u, v
	return len(skips), false
}

// skipBlock is one block of the pipeline: the generator before the
// block's first draw, and the skips its draws give.
type skipBlock struct {
	start xrand.RNG
	skips []float64
}

// pipelinedDepth is the number of blocks in flight between the helper
// and the walk. With two, each side mostly waits for the other's one
// block (0.15 s at 1<<22 expected edges, against 0.08 with four); eight
// are no faster than four.
const pipelinedDepth = 4

// pipelined runs the walk over blocks of skips that a helper goroutine
// draws ahead on a copy of rng. When the walk ends on draw k of a block,
// rng is set to that block's start and its first k draws are replayed
// (a Float64Open may take more than one raw draw, so the position is
// only known by drawing), which leaves rng where the draw-as-you-go
// walk leaves it. The helper is stopped and has exited before pipelined
// returns.
func (w *pairWalk) pipelined(rng *xrand.RNG, logq float64, block int) {
	// Both channels hold every block, so neither side's send blocks
	// once the other has stopped receiving.
	full := make(chan *skipBlock, pipelinedDepth)
	free := make(chan *skipBlock, pipelinedDepth)
	for range pipelinedDepth {
		free <- &skipBlock{skips: make([]float64, block)}
	}
	stop, exited := make(chan struct{}), make(chan struct{})
	go func(gen xrand.RNG) {
		defer close(exited)
		for {
			// A stopped walk returns no more blocks, but free may still
			// hold some: look at stop first, so none of them is filled.
			select {
			case <-stop:
				return
			default:
			}
			var blk *skipBlock
			select {
			case blk = <-free:
			case <-stop:
				return
			}
			blk.start = gen
			for i := range blk.skips {
				blk.skips[i] = math.Log(gen.Float64Open())/logq + 1
			}
			full <- blk
		}
	}(*rng)
	for {
		blk := <-full
		k, done := w.take(blk.skips)
		if done {
			close(stop)
			<-exited
			*rng = blk.start
			for range k {
				rng.Float64Open()
			}
			return
		}
		free <- blk
	}
}
