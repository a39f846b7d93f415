package core

import (
	"errors"
	"fmt"

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
// tick time). A fixed graph is graph.NewStatic(g). variant (ppx/ppy,
// push-pull only) and quasirandom select the auxiliary synchronous
// processes; both need a static topology and no churn.
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
	n := topo.NumNodes()
	_, static := topo.(*graph.Static)
	t := &Trial{fresh: true}
	var err error
	switch cfg := any(cfg).(type) {
	case SyncConfig:
		t.label = fmt.Sprintf("sync %v", cfg.Protocol)
		if variant != 0 || quasirandom {
			if cfg, t.label, err = auxiliaryConfig(cfg, variant, quasirandom, static); err != nil {
				return nil, err
			}
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
		if variant != 0 || quasirandom {
			return nil, fmt.Errorf("%w: ppx, ppy and quasirandom are synchronous processes", ErrBadProtocol)
		}
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

// auxiliaryConfig validates a ppx/ppy or quasirandom scenario and
// returns the configuration its round body runs under and its name.
func auxiliaryConfig(cfg SyncConfig, variant PPVariant, quasirandom, static bool) (SyncConfig, string, error) {
	name := variant.String()
	if variant == 0 {
		name = fmt.Sprintf("quasirandom %v", cfg.Protocol)
	}
	var err error
	switch {
	case variant != 0 && quasirandom:
		err = fmt.Errorf("%w: %s cannot be quasirandom", ErrBadProtocol, name)
	case variant != 0 && variant != PPX && variant != PPY:
		err = fmt.Errorf("%w: variant %d", ErrBadProtocol, int(variant))
	case variant != 0 && cfg.Protocol != 0 && cfg.Protocol != PushPull:
		err = fmt.Errorf("%w: %s is defined for push-pull only", ErrBadProtocol, name)
	case quasirandom && len(cfg.Crashes) > 0:
		err = fmt.Errorf("%w: %s does not support crash injection", ErrBadCrash, name)
	case len(cfg.Churn) > 0:
		err = fmt.Errorf("%w: %s does not support churn", ErrBadChurn, name)
	case !static:
		err = fmt.Errorf("%w: %s needs a static topology", ErrBadProtocol, name)
	}
	if variant != 0 {
		// ppx/ppy are single-source, crash-free processes by definition.
		cfg.Protocol, cfg.ExtraSources, cfg.Crashes = PushPull, nil, nil
	}
	return cfg, name, err
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
	for err == nil && s.Step() {
		if s.steps >= t.budget && !s.Finished() {
			err = t.budgetErr(s.steps, "steps", s.g)
			s.release(false) // the run ends here, not in Step
		}
	}
	if err == nil {
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
