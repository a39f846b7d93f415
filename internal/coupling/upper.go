package coupling

import (
	"errors"
	"fmt"
	"math"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Coupling errors.
var (
	ErrDisconnected = errors.New("coupling: graph must be connected")
	ErrNoProgress   = errors.New("coupling: process stalled (internal invariant violated)")
)

// UpperResult reports one execution of the upper-bound coupling: the three
// processes ppx, ppy, pp-a run on identical shared randomness (X_{v,i}
// push targets and Y_{v,w} pull delays).
type UpperResult struct {
	// PPXRound[v] = r_v: the round v was informed in the coupled ppx.
	PPXRound []int32
	// PPYRound[v] = r'_v: the round v was informed in the coupled ppy.
	PPYRound []int32
	// AsyncTime[v] = t_v: the time v was informed in the coupled pp-a.
	AsyncTime []float64
	// PPXTotal, PPYTotal are the spreading times (max informing round).
	PPXTotal, PPYTotal int32
	// AsyncTotal is the pp-a spreading time (max informing time).
	AsyncTotal float64
}

// MaxPPYExcess returns max over nodes of r'_v - 2·r_v, the quantity the
// proof of Lemma 9 bounds by O(log(n/δ)) with probability 1-δ.
func (r *UpperResult) MaxPPYExcess() int32 {
	var max int32 = math.MinInt32
	for v := range r.PPYRound {
		if e := r.PPYRound[v] - 2*r.PPXRound[v]; e > max {
			max = e
		}
	}
	return max
}

// MaxAsyncExcess returns max over nodes of t_v - 4·r'_v, the quantity the
// proof of Lemma 10 bounds by O(log(n/δ)) with probability 1-δ.
func (r *UpperResult) MaxAsyncExcess() float64 {
	max := math.Inf(-1)
	for v := range r.AsyncTime {
		if e := r.AsyncTime[v] - 4*float64(r.PPYRound[v]); e > max {
			max = e
		}
	}
	return max
}

// RunUpper executes the upper-bound coupling on a connected graph: ppx,
// ppy, and pp-a are driven by the same Shared randomness derived from
// seed, exactly as constructed in the proofs of Lemmas 9 and 10.
func RunUpper(g *graph.Graph, src graph.NodeID, seed uint64) (*UpperResult, error) {
	if g.NumNodes() == 0 || !graph.IsConnected(g) {
		return nil, fmt.Errorf("%w: %v", ErrDisconnected, g)
	}
	if src < 0 || int(src) >= g.NumNodes() {
		return nil, fmt.Errorf("coupling: source %d out of range", src)
	}
	sh := NewShared(g, seed)
	root := xrand.New(seed)
	ppx, err := runCoupledSync(g, src, sh, true)
	if err != nil {
		return nil, err
	}
	ppy, err := runCoupledSync(g, src, sh, false)
	if err != nil {
		return nil, err
	}
	async, err := runCoupledAsync(g, src, sh, root.Child(5))
	if err != nil {
		return nil, err
	}
	res := &UpperResult{PPXRound: ppx, PPYRound: ppy, AsyncTime: async}
	for v := range ppx {
		if ppx[v] > res.PPXTotal {
			res.PPXTotal = ppx[v]
		}
		if ppy[v] > res.PPYTotal {
			res.PPYTotal = ppy[v]
		}
		if async[v] > res.AsyncTotal {
			res.AsyncTotal = async[v]
		}
	}
	return res, nil
}

// runCoupledSync executes the coupled ppx (halfRule true) or ppy
// (halfRule false) and returns the informing round of every node.
//
// Coupling rules (proof of Lemma 9):
//   - push: v pushes to X_{v,i} in round r_v + i;
//   - pull: v pulls in round t = min_w { r_w + ceil(Y_{v,w}) } from the
//     neighbor minimizing r_w + Y_{v,w}, unless (halfRule) at the end of
//     some earlier round z at least deg(v)/2 of v's neighbors are
//     informed, in which case v pulls in round z+1 from the neighbor
//     minimizing r_w + Y_{v,w} over neighbors informed by round z.
//
// Both cases reduce to pulling in round min(t, z+1), reading the running
// minimum cand[v] = min over currently informed w of (r_w + Y_{v,w}).
func runCoupledSync(g *graph.Graph, src graph.NodeID, sh *Shared, halfRule bool) ([]int32, error) {
	n := g.NumNodes()
	r := make([]int32, n)
	for i := range r {
		r[i] = -1
	}
	informed := make([]bool, n)
	order := make([]graph.NodeID, 0, n)
	kInf := make([]int32, n)
	cand := make([]float64, n)
	for i := range cand {
		cand[i] = math.Inf(1)
	}
	zTrig := make([]int32, n)
	for i := range zTrig {
		zTrig[i] = -1
	}
	pullQ := newEventQueue(n)

	var pending []graph.NodeID
	inform := func(v graph.NodeID, round int32) {
		informed[v] = true
		r[v] = round
		order = append(order, v)
		if pullQ.contains(int32(v)) {
			pullQ.remove(int32(v))
		}
		for _, u := range g.Neighbors(v) {
			kInf[u]++
			if informed[u] {
				continue
			}
			val := float64(round) + sh.Y(u, neighborIndex(g, u, v))
			if val < cand[u] {
				cand[u] = val
			}
			if halfRule && zTrig[u] < 0 && 2*kInf[u] >= g.Degree(u) {
				zTrig[u] = round
			}
			pullRound := math.Ceil(cand[u])
			if zTrig[u] >= 0 && float64(zTrig[u]+1) < pullRound {
				pullRound = float64(zTrig[u] + 1)
			}
			pullQ.decreaseTo(int32(u), pullRound)
		}
	}
	inform(src, 0)

	maxRounds := int32(4000)
	if limit := int32(400 * n); limit > maxRounds {
		maxRounds = limit
	}
	num := 1
	for round := int32(1); num < n; round++ {
		if round > maxRounds {
			return nil, fmt.Errorf("%w: coupled sync run exceeded %d rounds", ErrNoProgress, maxRounds)
		}
		pending = pending[:0]
		// Pushes based on the pre-round informed set.
		for _, v := range order {
			i := int(round - r[v])
			w := sh.PushTarget(v, i)
			if !informed[w] {
				pending = append(pending, w)
			}
		}
		// Pulls scheduled for this round.
		for {
			it, ok := pullQ.min()
			if !ok || it.Priority > float64(round) {
				break
			}
			pullQ.pop()
			v := graph.NodeID(it.ID)
			if !informed[v] {
				pending = append(pending, v)
			}
		}
		for _, v := range pending {
			if !informed[v] {
				inform(v, round)
				num++
			}
		}
	}
	return r, nil
}

// runCoupledAsync executes the coupled pp-a of Lemma 10: pushes occur at
// v's own rate-1 Poisson ticks after t_v with the shared targets X_{v,i};
// the first pull of v from w after t_w occurs at t_w + 2·Y_{v,w}
// (2·Y_{v,w} ~ Exp(1/deg(v)), the per-directed-edge clock view).
func runCoupledAsync(g *graph.Graph, src graph.NodeID, sh *Shared, rng *xrand.RNG) ([]float64, error) {
	n := g.NumNodes()
	t := make([]float64, n)
	for i := range t {
		t[i] = -1
	}
	informed := make([]bool, n)
	pushCount := make([]int, n)
	// Queue IDs: v in [0, n) = pending pull of v; n+v = next push of v.
	q := newEventQueue(2 * n)

	inform := func(v graph.NodeID, tm float64) {
		informed[v] = true
		t[v] = tm
		if q.contains(int32(v)) {
			q.remove(int32(v))
		}
		q.push(int32(n)+int32(v), tm+rng.Exp(1))
		for _, u := range g.Neighbors(v) {
			if informed[u] {
				continue
			}
			val := tm + 2*sh.Y(u, neighborIndex(g, u, v))
			q.decreaseTo(int32(u), val)
		}
	}
	inform(src, 0)

	num := 1
	var guard int64
	// Push clocks tick throughout the run, so the event count scales with
	// n times the spreading time, which can reach Θ(n) on path-like
	// graphs: allow a quadratic budget.
	maxEvents := int64(200)*int64(n)*int64(ilog2(n)) + 4*int64(n)*int64(n) + 100000
	for num < n {
		guard++
		if guard > maxEvents {
			return nil, fmt.Errorf("%w: coupled async run exceeded %d events", ErrNoProgress, maxEvents)
		}
		it, ok := q.pop()
		if !ok {
			return nil, fmt.Errorf("%w: event queue drained with %d/%d informed", ErrNoProgress, num, n)
		}
		if int(it.ID) < n {
			v := graph.NodeID(it.ID)
			if !informed[v] {
				inform(v, it.Priority)
				num++
			}
		} else {
			v := graph.NodeID(int(it.ID) - n)
			pushCount[v]++
			w := sh.PushTarget(v, pushCount[v])
			q.push(it.ID, it.Priority+rng.Exp(1))
			if !informed[w] {
				inform(w, it.Priority)
				num++
			}
		}
	}
	return t, nil
}

// ilog2 returns floor(log2(n)) + 1 for n >= 1.
func ilog2(n int) int {
	l := 0
	for n > 0 {
		n >>= 1
		l++
	}
	return l
}
