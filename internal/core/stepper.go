package core

import (
	"cmp"
	"math/bits"
	"sort"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// SyncStepper advances a synchronous rumor spreading process one round at
// a time, so callers can inspect the informed set between rounds (e.g. to
// record spreading curves, stop at a coverage threshold, or interleave
// several processes). Trial runs it to completion; ppx/ppy and the
// quasirandom protocol are alternative round bodies on the same skeleton.
//
// All working storage is arena-allocated against the graph once, and
// Reset rewinds the stepper to round 0 for a fresh trial without
// allocating, so a cell's trials reuse one stepper. Not safe for
// concurrent use.
type SyncStepper struct {
	scenario
	rng        *xrand.RNG
	informedAt []int32
	doPush     bool
	doPull     bool
	round      int
	updates    int64
	finished   bool
	pending    []syncPending
	draws      []uint64
	// variant != 0 selects the ppx/ppy round body, offsets != nil the
	// quasirandom one (offsets[v] is v's list offset plus one; 0 means
	// not sampled yet).
	variant PPVariant
	offsets []int32
}

type syncPending struct{ v, from graph.NodeID }

// NewSyncStepper validates the configuration and prepares a process with
// the sources informed at round 0. MaxRounds in cfg is ignored — the
// caller controls the loop.
func NewSyncStepper(g *graph.Graph, src graph.NodeID, cfg SyncConfig, rng *xrand.RNG) (*SyncStepper, error) {
	if err := CheckScenario(cfg, 0, false, false); err != nil {
		return nil, err
	}
	return newSyncStepper(graph.NewStatic(g), src, cfg, rng)
}

// newSyncStepper is NewSyncStepper over a possibly time-varying
// topology, for a cfg CheckScenario accepted: round r executes on topo's
// graph at time r-1 (round 1 on the epoch-0 graph). Reachability-based
// early termination is disabled on a dynamic one — a future epoch may
// reconnect the rumor — so runs that never reach some node end only at
// the caller's round budget (or when churn has permanently removed the
// unreachable nodes). Topology materialization errors surface through
// Err.
func newSyncStepper(topo graph.Provider, src graph.NodeID, cfg SyncConfig, rng *xrand.RNG) (*SyncStepper, error) {
	sc, err := newScenario(topo, src, cfg.Protocol, cfg.TransmitProb, cfg.Observer)
	if err == nil {
		// Every round body's pull half iterates the boundary.
		err = sc.build(src, cfg.ExtraSources, cfg.Crashes, cfg.Churn, true)
	}
	if err != nil {
		return nil, err
	}
	s := &SyncStepper{
		scenario:   sc,
		informedAt: make([]int32, sc.g.NumNodes()),
		doPush:     cfg.Protocol != Pull,
		doPull:     cfg.Protocol != Push,
	}
	s.forget = func(v graph.NodeID) { s.informedAt[v] = -1 }
	s.Reset(rng)
	return s, nil
}

// Reset rewinds the stepper to round 0 for a new trial driven by rng,
// reusing all internal storage (steady-state trials allocate nothing).
// Slices of results snapshotted before the Reset are invalidated: they
// alias the stepper's arenas and will be overwritten.
func (s *SyncStepper) Reset(rng *xrand.RNG) {
	s.rng = rng
	s.scenario.reset()
	startTimes(s.informedAt, s.sources)
	s.round = 0
	s.updates = 0
	s.finished = false
	s.pending = s.pending[:0]
	clear(s.offsets)
}

// fillDraws returns a buffer of k raw 64-bit draws from the stepper's
// generator, reusing the stepper's draw arena.
func (s *SyncStepper) fillDraws(k int) []uint64 {
	if cap(s.draws) < k {
		s.draws = make([]uint64, k)
	}
	d := s.draws[:k]
	s.rng.Fill(d)
	return d
}

// Step executes one round and returns true, or returns false without
// executing anything if the process can make no further progress (all
// reachable nodes informed, or crashes isolated the rumor).
func (s *SyncStepper) Step() bool {
	if s.finished {
		return false
	}
	// The schedule is applied to the round about to run and strandedness
	// looked for before every round; round r then executes on the topology
	// at time r-1, so round 1 runs on the graph the trial started with.
	if s.st.done() ||
		s.avail != nil && s.advance(float64(s.round+1), true) ||
		s.dynamic && !s.at(float64(s.round)) {
		s.finished = true
		return false
	}
	s.round++
	s.pending = s.pending[:0]
	switch {
	case s.variant != 0:
		s.variantRound()
	case s.offsets != nil:
		s.quasirandomRound()
	default:
		s.ppRound()
	}
	for _, p := range s.pending {
		if !s.st.informed.get(p.v) {
			s.informedAt[p.v] = int32(s.round)
			s.inform(float64(s.round), p.v, p.from)
		}
	}
	return true
}

// ppRound collects one pp round's transmissions into s.pending.
//
// Neighbor draws are batched: the round's raw 64-bit values are filled
// into one buffer up front and reduced to each caller's degree by
// Lemire's multiply-shift, so the generator state stays in registers and
// the reduction needs no division.
func (s *SyncStepper) ppRound() {
	g := s.g
	if s.doPush {
		order := s.st.order
		draws := s.fillDraws(len(order))
		s.updates += int64(len(order))
		for i, v := range order {
			deg := uint64(g.Degree(v))
			if deg == 0 || !aliveIn(s.avail, v) {
				continue
			}
			w := g.Neighbor(v, int32(s.rng.Uint64nFrom(draws[i], deg)))
			if !s.st.informed.get(w) && aliveIn(s.avail, w) && (s.prob >= 1 || s.rng.Bernoulli(s.prob)) {
				s.pending = append(s.pending, syncPending{w, v})
			}
		}
	}
	if s.doPull {
		s.st.compactBoundary()
		boundary := s.st.boundary
		draws := s.fillDraws(len(boundary))
		s.updates += int64(len(boundary))
		for i, v := range boundary {
			if !aliveIn(s.avail, v) {
				continue
			}
			// Boundary nodes have an informed neighbor, so deg >= 1.
			deg := uint64(g.Degree(v))
			w := g.Neighbor(v, int32(s.rng.Uint64nFrom(draws[i], deg)))
			if s.st.informed.get(w) && aliveIn(s.avail, w) && (s.prob >= 1 || s.rng.Bernoulli(s.prob)) {
				s.pending = append(s.pending, syncPending{v, w})
			}
		}
	}
}

// Round returns the number of rounds executed so far.
func (s *SyncStepper) Round() int { return s.round }

// Finished reports whether no further progress is possible.
func (s *SyncStepper) Finished() bool {
	return s.finished || s.st.done()
}

// Updates returns the number of node-step operations executed so far.
func (s *SyncStepper) Updates() int64 { return s.updates }

// Result snapshots the current state as a SyncResult. The slices alias
// the stepper's arenas: they are valid until the next Reset, and read
// as the snapshot's state only until the next Step.
func (s *SyncStepper) Result() *SyncResult {
	r := s.snapshot()
	return &r
}

func (s *SyncStepper) snapshot() SyncResult {
	return SyncResult{
		Rounds:      s.round,
		InformedAt:  s.informedAt,
		Parent:      s.st.parent,
		NumInformed: s.st.num,
		Complete:    s.st.num == s.g.NumNodes(),
		Updates:     s.updates,
		order:       s.st.order,
	}
}

// AsyncStepper advances an asynchronous process one clock tick at a time
// using the Gillespie direct method for uniform rates: because every
// clock in a view runs at the same rate, the next event time is one
// Exp(total rate) draw and the next actor is one uniform draw — no
// per-event heap. This is exact for all three views:
//
//   - GlobalClock / PerNodeClocks: n unit-rate node clocks superpose into
//     a rate-n process whose ticks select a uniform node.
//   - PerEdgeClocks: node v's deg(v) edge clocks of rate 1/deg(v) sum to
//     rate 1, so ticks select a uniform degree-positive node, which then
//     contacts a uniform neighbor.
//
// Crash and churn schedules are handled by thinning: time keeps advancing
// at the full rate and an offline actor's ticks are discarded, which
// leaves every online clock a unit-rate Poisson process — the same law as
// removing the offline clocks and restarting them on rejoin, which is how
// RunAsyncReference, the specification, does it.
//
// Ticks are drawn a block at a time and executed by run, in one loop
// per call, until the run ends or a tick limit: Trial.Run's limit is its
// budget, Step's the next tick. A tick's draws (gap, actor, neighbor
// index) depend on the graph but never on the informed set, so a block
// is filled in three passes. The first takes from the generator, in
// per-tick order, each tick's gap, its actor and one raw word for its
// neighbor index, and reads no graph memory. The second loads every
// actor's degree and reduces each raw word to an index as Uint64n(deg)
// would; the third resolves every contact adj[offsets[v]+k]. Each pass's
// loads are independent, so on a graph larger than the cache their
// misses overlap instead of each tick paying two in full before the next
// tick's addresses are known. Uint64n(deg) draws exactly one word unless
// deg is 0 (an isolated actor draws none) or its rejection test may fire
// (a chance below deg/2^64); the second pass flags both, and a flagged
// block rewinds the generator and redraws itself one tick at a time, so
// the stream is the same. Two things force the block down to a single
// tick, both properties of the scenario: TransmitProb < 1 (the Bernoulli
// draw of a transmitting contact sits between two ticks' draws, and
// whether it is taken depends on the informed set) and a dynamic
// topology (the next tick may run on another graph). The same properties,
// and a schedule, are all the tick loop asks about the scenario: a
// static lossless run with no schedule executes a tick as its draws, two
// informed-set bits and, if the rumor moves, the informing.
//
// The stepper therefore owns its generator between calls: while a run
// is in progress the generator is up to a block ahead of the ticks
// executed. When the run ends — completion, a schedule tick that halts
// it, a topology error, or Trial.Run's budget — the generator is put
// back exactly where a tick-at-a-time engine would have left it, so a
// caller that threads one generator through several runs sees the same
// stream. A caller that abandons a run part-way must not reuse the
// generator.
//
// Reset rewinds to time 0 for a fresh trial without allocating, and drops
// any ticks drawn from the previous generator but not executed.
type AsyncStepper struct {
	scenario
	rng        *xrand.RNG
	informedAt []float64
	eligible   []graph.NodeID // PerEdgeClocks: degree-positive nodes; nil if all are
	rate       float64        // total tick rate of the superposed process
	n          uint64         // size of the actor draw range
	// checkEvery throttles the strandedness scan a schedule needs: under
	// one, every checkEvery-th tick looks for it.
	checkEvery int64
	t          float64
	steps      int64
	// halted says the schedule or the topology ended the run on its last
	// tick; a run that completed is told by the spread state.
	halted bool
	// block[head:] are the ticks drawn but not yet executed; mark is the
	// generator as it stood before block[0] was drawn.
	block []asyncTick
	head  int
	mark  xrand.RNG
	// draws is drawBlock's scratch: a block's gaps, actor indices and
	// raw neighbor words.
	draws struct {
		dt       [asyncBlock]float64
		idx, raw [asyncBlock]uint64
	}
}

// asyncTick is one pre-drawn clock tick.
type asyncTick struct {
	dt float64      // gap since the previous tick
	v  graph.NodeID // the node whose clock ticked
	w  graph.NodeID // the neighbor it contacts; -1 if v is isolated
}

// asyncBlock is the number of ticks drawn ahead when nothing can come
// between two ticks' draws: enough independent loads in flight to cover
// a cache miss, few enough that a small cell's one over-drawn block per
// trial costs nothing.
const asyncBlock = 64

// NewAsyncStepper validates the configuration and prepares the process.
// MaxSteps in cfg is ignored — the caller controls the loop. View
// selects the tick semantics as in RunAsync (0 means GlobalClock).
func NewAsyncStepper(g *graph.Graph, src graph.NodeID, cfg AsyncConfig, rng *xrand.RNG) (*AsyncStepper, error) {
	if err := CheckScenario(cfg, 0, false, false); err != nil {
		return nil, err
	}
	return newAsyncStepper(graph.NewStatic(g), src, cfg, rng)
}

// newAsyncStepper is NewAsyncStepper over a possibly time-varying
// topology, for a cfg CheckScenario accepted: the contact at each tick
// uses topo's graph at the tick time. On a dynamic one
// reachability-based early termination is disabled. Topology errors
// surface through Err.
func newAsyncStepper(topo graph.Provider, src graph.NodeID, cfg AsyncConfig, rng *xrand.RNG) (*AsyncStepper, error) {
	sc, err := newScenario(topo, src, cfg.Protocol, cfg.TransmitProb, cfg.Observer)
	if err != nil {
		return nil, err
	}
	view := cmp.Or(cfg.View, GlobalClock)
	// A tick reads only the informed set, never the boundary.
	if err := sc.build(src, cfg.ExtraSources, cfg.Crashes, cfg.Churn, false); err != nil {
		return nil, err
	}
	g, n := sc.g, sc.g.NumNodes()
	s := &AsyncStepper{scenario: sc, informedAt: make([]float64, n), checkEvery: int64(2*n) + 16}
	s.forget = func(v graph.NodeID) { s.informedAt[v] = -1 }
	if view == PerEdgeClocks {
		for v := graph.NodeID(0); int(v) < n; v++ {
			if g.Degree(v) > 0 {
				s.eligible = append(s.eligible, v)
			}
		}
		s.n = uint64(len(s.eligible))
		if len(s.eligible) == n {
			s.eligible = nil // all degree-positive: draw node IDs directly
		}
	} else {
		s.n = uint64(n)
	}
	s.rate = float64(s.n)
	if s.prob < 1 || s.dynamic {
		s.block = make([]asyncTick, 1)
	} else {
		s.block = make([]asyncTick, asyncBlock)
	}
	s.Reset(rng)
	return s, nil
}

// Reset rewinds the stepper to time 0 for a new trial driven by rng,
// reusing all internal storage. Results snapshotted before the Reset are
// invalidated: their slices alias the stepper's arenas.
func (s *AsyncStepper) Reset(rng *xrand.RNG) {
	s.rng = rng
	s.scenario.reset()
	startTimes(s.informedAt, s.sources)
	s.t = 0
	s.steps = 0
	s.halted = false
	s.head = len(s.block)
}

// Step executes one clock tick and returns true, or returns false if no
// further progress is possible: it executed nothing, or the schedule or
// the topology ended the run on the tick it executed, which Steps and
// Time count.
func (s *AsyncStepper) Step() bool {
	before := s.steps
	s.run(before + 1)
	return s.steps > before && !s.halted
}

// run executes ticks until the run ends or steps reaches limit, and
// reports whether it stopped at the limit with the run still going. A
// run that ends has put the generator back (see release); one stopped
// at the limit still holds the rest of its block.
func (s *AsyncStepper) run(limit int64) bool {
	if s.halted || s.st.done() || s.n == 0 {
		return false
	}
	// special: the schedule or the topology comes into every tick. plain:
	// nor does the channel, so every contact that would move the rumor
	// does.
	special := s.avail != nil || s.dynamic
	plain := !special && s.prob >= 1
	push, pull := s.protocol != Pull, s.protocol != Push
	informed := s.st.informed.words
	for s.steps < limit {
		if s.head == len(s.block) {
			s.drawBlock()
		}
		tk := &s.block[s.head]
		s.head++
		s.steps++
		s.t += tk.dt
		if special && !s.scheduleTick(tk) {
			return false
		}
		v, w := tk.v, tk.w
		if w < 0 {
			continue
		}
		vInf := informed[uint32(v)>>6]&(1<<(uint32(v)&63)) != 0
		wInf := informed[uint32(w)>>6]&(1<<(uint32(w)&63)) != 0
		if vInf == wInf || vInf && !push || wInf && !pull || !plain && !s.admit(v, w) {
			continue
		}
		if vInf {
			v, w = w, v
		}
		s.informedAt[v] = s.t
		s.inform(s.t, v, w)
		if s.st.done() {
			s.release(false)
			return false
		}
	}
	return true
}

// scheduleTick applies the schedule and the topology to the tick just
// begun and, on a dynamic topology, draws its contact. It reports
// whether the tick goes on; a tick they end the run on halts it.
func (s *AsyncStepper) scheduleTick(tk *asyncTick) bool {
	if s.avail != nil && s.advance(s.t, s.steps%s.checkEvery == 0) || s.dynamic && !s.at(s.t) {
		s.halted = true
		s.release(true)
		return false
	}
	if s.dynamic {
		// The one draw that cannot move into drawBlock: which graph this
		// tick runs on is known only now, and the neighbor draw is taken
		// over the actor's degree in that graph.
		s.drawContact(tk)
		s.resolve(tk)
	}
	return true
}

// admit reports whether a contact that would move the rumor between v
// and w goes through: both are online, and then the channel's Bernoulli
// draw, the one draw a tick takes that depends on the informed set.
func (s *AsyncStepper) admit(v, w graph.NodeID) bool {
	return aliveIn(s.avail, v) && aliveIn(s.avail, w) && (s.prob >= 1 || s.rng.Bernoulli(s.prob))
}

// drawBlock refills the block in three passes: the generator's draws
// (one FillTicks call), the degree loads, the neighbor loads.
func (s *AsyncStepper) drawBlock() {
	s.mark = *s.rng
	s.head = 0
	if s.dynamic {
		// One tick, and only its gap: Step draws the contact once it
		// knows the tick's graph.
		s.block[0].dt = s.rng.Exp(s.rate)
		return
	}
	dt, idx, raw := &s.draws.dt, &s.draws.idx, &s.draws.raw
	m := len(s.block)
	s.rng.FillTicks(s.rate, s.n, dt[:m], idx[:m], raw[:m])
	exact := true
	for i := range s.block {
		tk := &s.block[i]
		tk.dt = dt[i]
		if s.eligible != nil {
			tk.v = s.eligible[idx[i]]
		} else {
			tk.v = graph.NodeID(idx[i])
		}
		k, ok := neighborIndex(raw[i], uint64(s.g.Degree(tk.v)))
		tk.w = graph.NodeID(k)
		exact = exact && ok
	}
	if !exact {
		*s.rng = s.mark
		for i := range s.block {
			s.block[i].dt = s.rng.Exp(s.rate)
			s.drawContact(&s.block[i])
		}
	}
	for i := range s.block {
		s.resolve(&s.block[i])
	}
}

// neighborIndex reduces x, one raw draw, to [0, deg) as Uint64n(deg)
// reduces the first word it draws: by a mask when deg is a power of two,
// otherwise by Lemire's multiply-shift. ok is false when that call would
// not have drawn exactly that one word — deg is 0 (an isolated actor
// draws none), or the low product word is below deg (the rejection test
// may draw more) — and then k is not the index Uint64n would return.
func neighborIndex(x, deg uint64) (k uint64, ok bool) {
	if deg&(deg-1) == 0 {
		return x & (deg - 1), deg != 0
	}
	hi, lo := bits.Mul64(x, deg)
	return hi, lo >= deg
}

// drawContact draws tk's actor and, unless the actor is isolated in the
// current graph, the index of the neighbor it contacts (left in tk.w for
// resolve).
func (s *AsyncStepper) drawContact(tk *asyncTick) {
	if s.eligible != nil {
		tk.v = s.eligible[s.rng.Uint64n(s.n)]
	} else {
		tk.v = graph.NodeID(s.rng.Uint64n(s.n))
	}
	tk.w = -1
	if deg := s.g.Degree(tk.v); deg != 0 {
		tk.w = graph.NodeID(s.rng.Uint64n(uint64(deg)))
	}
}

// resolve replaces the neighbor index drawContact left in tk.w by the
// neighbor.
func (s *AsyncStepper) resolve(tk *asyncTick) {
	if tk.w >= 0 {
		tk.w = s.g.Neighbor(tk.v, tk.w)
	}
}

// release puts the generator back where executing block[:head] one tick
// at a time would have left it — after the whole draws of those ticks,
// or after only the gap draw of the last one if it halted (the schedule
// or the topology ended the run before the tick had an actor) — and
// forgets the rest of the block. A block executed to its end without
// halting already is in that position (and a lossy contact's Bernoulli
// draw may have followed it). Otherwise the executed ticks are replayed
// from mark, which is exact: their draws are a function of the
// generator and the graph alone, and a one-tick block only ever replays
// its gap.
func (s *AsyncStepper) release(halted bool) {
	if s.head < len(s.block) || halted {
		*s.rng = s.mark
		var tk asyncTick
		for i := 1; i <= s.head; i++ {
			s.rng.Exp(s.rate)
			if i < s.head || !halted {
				s.drawContact(&tk)
			}
		}
	}
	s.head = len(s.block)
}

// Time returns the current simulation time.
func (s *AsyncStepper) Time() float64 { return s.t }

// Steps returns the number of clock ticks executed so far.
func (s *AsyncStepper) Steps() int64 { return s.steps }

// Finished reports whether no further progress is possible.
func (s *AsyncStepper) Finished() bool {
	return s.halted || s.st.done()
}

// Result snapshots the current state as an AsyncResult. The slices alias
// the stepper's arenas: they are valid until the next Reset, and read
// as the snapshot's state only until the next Step.
func (s *AsyncStepper) Result() *AsyncResult {
	r := s.snapshot()
	return &r
}

func (s *AsyncStepper) snapshot() AsyncResult {
	return AsyncResult{
		Time:        s.t,
		Steps:       s.steps,
		InformedAt:  s.informedAt,
		Parent:      s.st.parent,
		NumInformed: s.st.num,
		Complete:    s.st.num == len(s.informedAt),
		order:       s.st.order,
	}
}

// Curve is a spreading curve: informed fraction as a function of time
// (rounds for synchronous processes, continuous time for asynchronous).
type Curve struct {
	// Times are the instants at which the informed count increased.
	Times []float64
	// Fractions[i] is the informed fraction from Times[i] (inclusive)
	// until Times[i+1].
	Fractions []float64
}

// FractionAt returns the informed fraction at time t (0 before the first
// informing).
func (c *Curve) FractionAt(t float64) float64 {
	lo, hi := 0, len(c.Times)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.Times[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return c.Fractions[lo-1]
}

// Curve extracts the spreading curve from a synchronous result.
func (r *SyncResult) Curve() *Curve { return curveFromTimes32(r.InformedAt, len(r.InformedAt)) }

// Curve extracts the spreading curve from an asynchronous result.
func (r *AsyncResult) Curve() *Curve { return curveFromTimes(r.InformedAt, len(r.InformedAt)) }

func curveFromTimes32(at []int32, n int) *Curve {
	times := make([]float64, 0, len(at))
	for _, t := range at {
		if t >= 0 {
			times = append(times, float64(t))
		}
	}
	return buildCurve(times, n)
}

func curveFromTimes(at []float64, n int) *Curve {
	times := make([]float64, 0, len(at))
	for _, t := range at {
		if t >= 0 {
			times = append(times, t)
		}
	}
	return buildCurve(times, n)
}

func buildCurve(times []float64, n int) *Curve {
	if len(times) == 0 || n == 0 {
		return &Curve{}
	}
	sort.Float64s(times)
	c := &Curve{}
	count := 0
	for i := 0; i < len(times); {
		j := i
		for j < len(times) && times[j] == times[i] {
			j++
		}
		count += j - i
		c.Times = append(c.Times, times[i])
		c.Fractions = append(c.Fractions, float64(count)/float64(n))
		i = j
	}
	return c
}
