package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Trial is one compiled spreading-time scenario: topology, sources,
// timing, process, schedule, and budget bound to the engine that
// simulates them. Run rewinds and replays it under a fresh RNG stream,
// reusing the engine's arenas, so a cell's trials share one Trial. Not
// safe for concurrent use.
type Trial struct {
	// Exactly one engine is set.
	sync   *SyncStepper  // every synchronous process
	async  *AsyncStepper // every asynchronous process
	budget int64         // rounds or clock ticks
	label  string        // process name for budget errors
	fresh  bool          // the engine has not run since construction
	sres   SyncResult
	ares   AsyncResult
}

// NewTrial compiles a scenario. cfg's type is the timing: a SyncConfig
// runs lock-step rounds (round r on topo's graph at time r-1), an
// AsyncConfig runs Poisson clocks (each tick on topo's graph at the
// tick time). A fixed graph is graph.NewStatic(g). variant (ppx/ppy)
// and quasirandom select the auxiliary synchronous processes.
// CheckScenario judges the options first; what is left to fail needs
// the graph: an empty one, or a source or schedule node outside it.
//
// There is one engine per timing:
//
//   - SyncConfig: the round stepper, with the pp, ppx/ppy, or
//     quasirandom round body.
//   - AsyncConfig: the Gillespie stepper. With uniform clock rates all
//     three views reduce to one Exp draw for the tick time and one
//     uniform draw for the actor; schedules are handled by thinning,
//     which models a stopped and a rejoining clock exactly
//     (RunAsyncReference is the specification it is tested against).
//
// MaxRounds/MaxSteps in cfg bound Run; 0 selects a generous default.
func NewTrial[C SyncConfig | AsyncConfig](topo graph.Provider, src graph.NodeID, cfg C, variant PPVariant, quasirandom bool) (*Trial, error) {
	_, static := topo.(*graph.Static)
	if err := CheckScenario(cfg, variant, quasirandom, !static); err != nil {
		return nil, err
	}
	n := topo.NumNodes()
	t := &Trial{fresh: true}
	var err error
	switch cfg := any(cfg).(type) {
	case SyncConfig:
		switch {
		case variant != 0:
			cfg.Protocol = PushPull // 0 selects it too
			t.label = variant.String()
		case quasirandom:
			t.label = fmt.Sprintf("quasirandom %v", cfg.Protocol)
		default:
			t.label = fmt.Sprintf("sync %v", cfg.Protocol)
		}
		t.budget = int64(cfg.MaxRounds)
		if t.budget <= 0 {
			t.budget = int64(defaultMaxRounds(n))
		}
		if t.sync, err = newSyncStepper(topo, src, cfg, nil); err != nil {
			return nil, err
		}
		if variant != 0 {
			t.sync.variant = variant
			t.sync.st.keepCounts() // the ppx/ppy round body reads them
		}
		if quasirandom {
			t.sync.offsets = make([]int32, n)
		}
	case AsyncConfig:
		t.label = fmt.Sprintf("async %v", cfg.Protocol)
		t.budget = cfg.MaxSteps
		if t.budget <= 0 {
			t.budget = defaultMaxSteps(n)
		}
		if t.async, err = newAsyncStepper(topo, src, cfg, nil); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// CheckScenario reports whether a scenario's options combine, before
// any graph is seen. cfg's type is the timing, variant and quasirandom
// select the auxiliary synchronous processes (as in NewTrial), and
// dynamic says the topology varies in time. It is the one judge of
// these rules; NewTrial and both stepper constructors call it first:
//
//   - the protocol is Push, Pull or PushPull (0 selects PushPull under a
//     variant), and the transmit probability is in [0, 1] (0 means 1);
//   - the view is valid, and per-edge-clocks takes no churn and no
//     dynamic topology;
//   - every crash and churn time is finite and not negative, every churn
//     op is ChurnLeave or ChurnJoin, and only a join drops state;
//   - ppx, ppy and quasirandom are synchronous, and a variant cannot be
//     quasirandom;
//   - a variant is push-pull from one source, with no crashes;
//   - quasirandom takes no crashes;
//   - a variant or quasirandom takes no churn and needs a static
//     topology.
//
// What it accepts fails later only on the graph: an empty one, or a
// source or schedule node outside it.
func CheckScenario[C SyncConfig | AsyncConfig](cfg C, variant PPVariant, quasirandom, dynamic bool) error {
	var sc SyncConfig // the options both timings share
	var view AsyncView
	switch cfg := any(cfg).(type) {
	case SyncConfig:
		sc = cfg
	case AsyncConfig:
		if variant != 0 || quasirandom {
			return fmt.Errorf("%w: ppx, ppy and quasirandom are synchronous processes", ErrBadProtocol)
		}
		sc = SyncConfig{Protocol: cfg.Protocol, TransmitProb: cfg.TransmitProb,
			ExtraSources: cfg.ExtraSources, Crashes: cfg.Crashes, Churn: cfg.Churn}
		view = cmp.Or(cfg.View, GlobalClock)
	}
	p := sc.Protocol
	if variant != 0 && p == 0 {
		p = PushPull
	}
	switch prob := sc.TransmitProb; {
	case !p.valid():
		return fmt.Errorf("%w: %d", ErrBadProtocol, int(p))
	case prob < 0 || prob > 1 || math.IsNaN(prob):
		return fmt.Errorf("%w: %v", ErrBadProb, prob)
	case view != 0 && !view.valid():
		return fmt.Errorf("%w: %d", ErrBadView, int(view))
	case view == PerEdgeClocks && len(sc.Churn) > 0:
		return fmt.Errorf("%w: churn schedules are not supported in the per-edge-clocks view", ErrBadView)
	case view == PerEdgeClocks && dynamic:
		return fmt.Errorf("%w: per-edge-clocks is not supported on a dynamic topology", ErrBadView)
	}
	for _, c := range sc.Crashes {
		if !(c.Time >= 0) || math.IsInf(c.Time, 1) {
			return fmt.Errorf("%w: time %v", ErrBadCrash, c.Time)
		}
	}
	for _, ev := range sc.Churn {
		switch {
		case !(ev.Time >= 0) || math.IsInf(ev.Time, 1):
			return fmt.Errorf("%w: time %v", ErrBadChurn, ev.Time)
		case ev.Op != ChurnLeave && ev.Op != ChurnJoin:
			return fmt.Errorf("%w: op %d", ErrBadChurn, int(ev.Op))
		case ev.DropState && ev.Op != ChurnJoin:
			return fmt.Errorf("%w: DropState is a join option", ErrBadChurn)
		}
	}
	if variant == 0 && !quasirandom {
		return nil
	}
	name := variant.String()
	if variant == 0 {
		name = fmt.Sprintf("quasirandom %v", p)
	}
	switch {
	case variant != 0 && quasirandom:
		return fmt.Errorf("%w: %s cannot be quasirandom", ErrBadProtocol, name)
	case variant != 0 && variant != PPX && variant != PPY:
		return fmt.Errorf("%w: variant %d", ErrBadProtocol, int(variant))
	case variant != 0 && p != PushPull:
		return fmt.Errorf("%w: %s is defined for push-pull only", ErrBadProtocol, name)
	case variant != 0 && len(sc.ExtraSources) > 0:
		return fmt.Errorf("%w: %s is a single-source process", ErrBadProtocol, name)
	case len(sc.Crashes) > 0:
		return fmt.Errorf("%w: %s does not support crash injection", ErrBadCrash, name)
	case len(sc.Churn) > 0:
		return fmt.Errorf("%w: %s does not support churn", ErrBadChurn, name)
	case dynamic:
		return fmt.Errorf("%w: %s needs a static topology", ErrBadProtocol, name)
	}
	return nil
}

// Run simulates one trial driven by rng, to completion or to the
// budget. On budget exhaustion the partial outcome is returned together
// with an error wrapping ErrBudget; a topology materialization failure
// is likewise returned alongside the partial outcome. The outcome's
// slices alias the trial's arenas: they are valid until the next Run.
func (t *Trial) Run(rng *xrand.RNG) (Outcome, error) {
	fresh := t.fresh
	t.fresh = false
	var err error
	if s := t.sync; s != nil {
		if fresh {
			s.rng = rng
		} else {
			s.Reset(rng)
		}
		for err == nil && s.Step() {
			if int64(s.round) >= t.budget && !s.Finished() {
				err = t.budgetErr(int64(s.round), "rounds", s.g)
			}
		}
		if err == nil {
			err = s.terr
		}
		t.sres = s.snapshot()
		return Outcome{Sync: &t.sres}, err
	}
	s := t.async
	if fresh {
		s.rng = rng
	} else {
		s.Reset(rng)
	}
	if s.run(t.budget) {
		err = t.budgetErr(s.steps, "steps", s.g)
		s.release(false) // the run ends here, not in run
	} else {
		err = s.terr
	}
	t.ares = s.snapshot()
	return Outcome{Async: &t.ares}, err
}

func (t *Trial) budgetErr(count int64, unit string, g *graph.Graph) error {
	return fmt.Errorf("%w: %d %s (%s on %v)", ErrBudget, count, unit, t.label, g)
}

// runOnce compiles a scenario and runs it a single time.
func runOnce[C SyncConfig | AsyncConfig](topo graph.Provider, src graph.NodeID, cfg C, variant PPVariant, quasirandom bool, rng *xrand.RNG) (Outcome, error) {
	t, err := NewTrial(topo, src, cfg, variant, quasirandom)
	if err != nil {
		return Outcome{}, err
	}
	return t.Run(rng)
}

// Outcome is the timing-independent view of one trial's result; exactly
// one of Sync and Async is set.
type Outcome struct {
	Sync  *SyncResult
	Async *AsyncResult
}

// Time is the spreading time reached: rounds executed, or the
// continuous time of the last informing.
func (o Outcome) Time() float64 {
	if o.Sync != nil {
		return float64(o.Sync.Rounds)
	}
	return o.Async.Time
}

// Work is the engine node updates consumed: contact draws for
// synchronous trials, clock ticks for asynchronous ones.
func (o Outcome) Work() int64 {
	if o.Sync != nil {
		return o.Sync.Updates
	}
	return o.Async.Steps
}

// Complete reports whether every node was informed.
func (o Outcome) Complete() bool {
	if o.Sync != nil {
		return o.Sync.Complete
	}
	return o.Async.Complete
}

// Coverage returns, for each fraction, the earliest time by which at
// least ceil(frac * n) nodes were informed, or -1 if never.
func (o Outcome) Coverage(fracs []float64) []float64 {
	if o.Sync == nil {
		return o.Async.CoverageTimes(fracs)
	}
	out := make([]float64, len(fracs))
	for i, r := range o.Sync.CoverageRounds(fracs) {
		out[i] = float64(r)
	}
	return out
}

// SpreadingTime is Time for a trial that informed every node, and an
// error otherwise: the spreading time of a disconnected graph is
// infinite.
func (o Outcome) SpreadingTime() (float64, error) {
	if !o.Complete() {
		return 0, errors.New("core: graph is disconnected (the rumor stopped short of some node); spreading time undefined")
	}
	return o.Time(), nil
}
