package core

import (
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// tickAtATime is the specification of the static async tick stream: each
// tick draws its gap, its actor and, unless the actor is isolated, the
// index of the neighbor it contacts, in that order and one tick at a
// time, with nothing read ahead.
type tickAtATime struct {
	g        *graph.Graph
	eligible []graph.NodeID // the actor range; nil means every node
	rng      *xrand.RNG
}

func newTickAtATime(g *graph.Graph, view AsyncView, rng *xrand.RNG) *tickAtATime {
	r := &tickAtATime{g: g, rng: rng}
	if view == PerEdgeClocks {
		r.eligible = []graph.NodeID{}
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if g.Degree(v) > 0 {
				r.eligible = append(r.eligible, v)
			}
		}
	}
	return r
}

func (r *tickAtATime) next() asyncTick {
	var tk asyncTick
	if r.eligible != nil {
		tk.dt = r.rng.Exp(float64(len(r.eligible)))
		tk.v = r.eligible[r.rng.Uint64n(uint64(len(r.eligible)))]
	} else {
		tk.dt = r.rng.Exp(float64(r.g.NumNodes()))
		tk.v = graph.NodeID(r.rng.Uint64n(uint64(r.g.NumNodes())))
	}
	tk.w = -1
	if deg := r.g.Degree(tk.v); deg != 0 {
		tk.w = r.g.Neighbor(tk.v, int32(r.rng.Uint64n(uint64(deg))))
	}
	return tk
}

// TestAsyncTickStreamMatchesTickAtATime holds the block-drawing stepper to
// the tick-at-a-time loop on static graphs, tick by tick: every executed
// tick's (dt, v, w), and the generator's next value once a run ends,
// whether it ends on a block boundary, inside a block, or by completion.
// One generator is threaded through all of a row's runs. The rows cover
// isolated actors (which draw no neighbor index), power-of-two degrees
// (which draw their index by a mask), a star's two degree classes, and
// PerEdgeClocks, which draws actors from the degree-positive nodes.
func TestAsyncTickStreamMatchesTickAtATime(t *testing.T) {
	gnp := func(n int, p float64, seed uint64) *graph.Graph {
		return mustGraph(graph.GNP(n, p, xrand.New(seed)))
	}
	rows := []struct {
		name string
		g    *graph.Graph
		view AsyncView
	}{
		{"stream/global", streamGraph(t), GlobalClock},
		{"stream/per-edge", streamGraph(t), PerEdgeClocks},
		{"gnp(300,1.5/n)/global", gnp(300, 1.5/300, 1), GlobalClock},
		{"gnp(300,1.5/n)/per-node", gnp(300, 1.5/300, 2), PerNodeClocks},
		{"gnp(300,1.5/n)/per-edge", gnp(300, 1.5/300, 3), PerEdgeClocks},
		{"gnp(2000,20/n)/global", gnp(2000, 20.0/2000, 4), GlobalClock},
		{"cycle(64)", mustGraph(graph.Cycle(64)), GlobalClock},
		{"hypercube(16)", mustGraph(graph.Hypercube(16)), GlobalClock},
		{"star(100)", mustGraph(graph.Star(100)), GlobalClock},
		{"star(100)/per-edge", mustGraph(graph.Star(100)), PerEdgeClocks},
	}
	// Run lengths in ticks: inside the first block, one short of and on a
	// boundary, one past it, inside a later block, and to completion.
	lengths := []int{1, 37, asyncBlock - 1, asyncBlock, asyncBlock + 1, 1000, 1 << 23}
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rng, refRNG := xrand.New(uint64(4100+i)), xrand.New(uint64(4100+i))
			ref := newTickAtATime(row.g, row.view, refRNG)
			s, err := NewAsyncStepper(row.g, 0, AsyncConfig{Protocol: PushPull, View: row.view}, rng)
			if err != nil {
				t.Fatal(err)
			}
			for run, k := range lengths {
				s.Reset(rng)
				executed := 0
				for executed < k {
					// The tick a Step executes: the next of the block, or the
					// first of a new one. (A Step that ends the run moves head.)
					next := s.head % len(s.block)
					if !s.Step() {
						break
					}
					got, want := s.block[next], ref.next()
					if got != want {
						t.Fatalf("run %d (%d ticks) tick %d: got (dt=%v v=%d w=%d), want (dt=%v v=%d w=%d)",
							run, k, executed, got.dt, got.v, got.w, want.dt, want.v, want.w)
					}
					executed++
				}
				switch {
				case run == len(lengths)-1 && executed == k:
					t.Fatalf("the run to completion stopped on its budget of %d ticks", k)
				case !s.Finished():
					s.release(false) // the run ends here, as Trial.Run ends one on its budget
				}
				if got, want := rng.Uint64(), refRNG.Uint64(); got != want {
					t.Fatalf("run %d (%d ticks, %d executed): next draw %016x, want %016x", run, k, executed, got, want)
				}
			}
		})
	}
}

// TestNeighborIndexMatchesUint64n holds drawBlock's reduction to the call
// it stands in for: for every degree 1…4096 and a run of generator words,
// whenever neighborIndex says its index is exact, Uint64n from the same
// generator returns that index and draws that one word. The rows below
// are the words on which it must say no: an isolated actor, and a low
// product word under the degree, where Uint64n's rejection test may draw
// again and drawBlock falls back to drawing the block tick by tick.
func TestNeighborIndexMatchesUint64n(t *testing.T) {
	rng := xrand.New(17)
	for deg := uint64(1); deg <= 4096; deg++ {
		for range 64 {
			after := *rng
			x := after.Uint64()
			k, ok := neighborIndex(x, deg)
			if want := rng.Uint64n(deg); ok && (k != want || *rng != after) {
				t.Fatalf("deg %d, word %016x: index %d, Uint64n %d (one word drawn: %v)", deg, x, k, want, *rng == after)
			}
			if deg&(deg-1) == 0 && !ok {
				t.Fatalf("deg %d, word %016x: a power of two always reduces by its mask", deg, x)
			}
		}
	}
	for _, row := range []struct {
		x, deg, k uint64
		ok        bool
	}{
		{x: 0, deg: 0},                    // isolated: Uint64n draws nothing
		{x: 1 << 63, deg: 0},              // whatever the word
		{x: 0, deg: 3},                    // lo = 0 < deg: the fallback
		{x: 0, deg: 4095},                 // likewise at the top of the range
		{x: 1, deg: 3, k: 0, ok: true},    // lo = 3, not below deg
		{x: 0, deg: 1, k: 0, ok: true},    // a power of two takes the mask
		{x: 0, deg: 4096, k: 0, ok: true}, // even on the word 0
		{x: ^uint64(0), deg: 3, k: 2, ok: true},
	} {
		k, ok := neighborIndex(row.x, row.deg)
		if ok != row.ok || (ok && k != row.k) {
			t.Errorf("neighborIndex(%#x, %d) = %d, %v; want %d, %v", row.x, row.deg, k, ok, row.k, row.ok)
		}
	}
}
