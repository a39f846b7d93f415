package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"rumor/internal/core"
	"rumor/internal/graph"
	"rumor/internal/harness"
)

// KindTime is the builtin cell kind: sample spreading times (and
// partial-coverage milestones) of the configured process.
const KindTime = "time"

// KindResult is what a cell-kind execution produces; the executor wraps
// it into a CellResult (adding the spec, cache key, graph identity, and
// the summary of Times). Every field must be a pure function of the
// cell spec.
type KindResult struct {
	// Times is the primary per-trial series (indexed by trial).
	Times []float64
	// Coverage maps milestone names to aggregate coverage times.
	Coverage map[string]float64
	// Series holds additional named per-trial series.
	Series map[string][]float64
	// Values holds named scalar outputs.
	Values map[string]float64
	// Work counts the engine node updates (simulated contact decisions
	// or clock ticks) the cell consumed — the throughput unit exported
	// as rumor_engine_node_updates_total. Zero when a kind does not
	// track it.
	Work int64
}

// CellKind is a registered measurement: how to validate a cell spec's
// scenario fields and how to execute its trials. Kinds let callers
// outside this package (e.g. the experiment suite's coupling-ladder and
// spectral-gap measurements) ride the service's cache, scheduler, and
// streaming without the service knowing their semantics.
//
// Run must be deterministic: a pure function of (cell, g). Trial
// parallelism is bounded by trialWorkers (>= 1); implementations that
// parallelize must derive per-trial RNG streams so the result is
// independent of scheduling (harness.Runner provides exactly that).
type CellKind struct {
	// Name is the wire name ("time", "coupling-upper", ...).
	Name string
	// NeedsGraph reports whether cells of this kind run on a graph
	// instance (Family/N/GraphSeed set). Graphless kinds receive a nil
	// graph and must leave Family/N empty in their specs.
	NeedsGraph bool
	// Dynamics reports whether cells of this kind accept the v3
	// dynamic-topology and churn fields. The generic CellSpec.Validate
	// rejects dynamic cells of kinds that leave this false, so kinds
	// never silently ignore a scenario field that changes the cache key.
	Dynamics bool
	// Validate, if non-nil, checks kind-specific scenario constraints
	// beyond the generic CellSpec checks.
	Validate func(cell CellSpec) error
	// Run executes the cell's trials on g (nil iff !NeedsGraph).
	Run func(ctx context.Context, cell CellSpec, g *graph.Graph, trialWorkers int) (*KindResult, error)
}

var (
	kindMu    sync.RWMutex
	kindTable = map[string]CellKind{}
)

// RegisterKind adds a cell kind to the registry. It fails on an empty
// or duplicate name and on a nil Run. Registration normally happens in
// package init functions (importing a package makes its kinds
// available); it is safe for concurrent use.
func RegisterKind(k CellKind) error {
	if k.Name == "" {
		return fmt.Errorf("service: cell kind with empty name")
	}
	if k.Run == nil {
		return fmt.Errorf("service: cell kind %q has no Run", k.Name)
	}
	kindMu.Lock()
	defer kindMu.Unlock()
	if _, dup := kindTable[k.Name]; dup {
		return fmt.Errorf("service: cell kind %q already registered", k.Name)
	}
	kindTable[k.Name] = k
	return nil
}

// MustRegisterKind is RegisterKind, panicking on error (for init use).
func MustRegisterKind(k CellKind) {
	if err := RegisterKind(k); err != nil {
		panic(err)
	}
}

// KindByName returns the registered kind.
func KindByName(name string) (CellKind, error) {
	kindMu.RLock()
	defer kindMu.RUnlock()
	k, ok := kindTable[name]
	if !ok {
		return CellKind{}, fmt.Errorf("service: unknown cell kind %q", name)
	}
	return k, nil
}

func init() {
	MustRegisterKind(CellKind{
		Name:       KindTime,
		NeedsGraph: true,
		Dynamics:   true,
		Validate:   validateTimeCell,
		Run:        runTimeCell,
	})
}

// validateTimeCell accepts a time cell whose scenario core accepts and
// that takes no params. Rejecting unsupported combinations here (rather
// than at run time) keeps invalid cells out of the queue and the cache
// key space.
func validateTimeCell(c CellSpec) error {
	if _, err := c.scenario(); err != nil {
		return err
	}
	if len(c.Params) > 0 {
		return fmt.Errorf("time cells take no params")
	}
	return nil
}

// scenario is a time cell's scenario in core's terms: the config of its
// timing (syncCfg or asyncCfg, as async says), its source and its
// variant.
type scenario struct {
	async       bool
	syncCfg     core.SyncConfig
	asyncCfg    core.AsyncConfig
	src         graph.NodeID
	variant     core.PPVariant
	quasirandom bool
}

// scenario translates the cell's scenario fields into core's terms —
// the timing, protocol, view and variant parsed, the crash and churn
// schedules converted — and has core.CheckScenario judge whether they
// combine. What can still fail in newTrial needs the built graph (a
// node outside it).
func (c CellSpec) scenario() (scenario, error) {
	if c.Timing != TimingSync && c.Timing != TimingAsync {
		return scenario{}, fmt.Errorf("unknown timing %q (want sync or async)", c.Timing)
	}
	proto, err := ParseProtocol(c.Protocol)
	if err != nil {
		return scenario{}, err
	}
	view, err := ParseView(c.View)
	if err != nil {
		return scenario{}, err
	}
	variant, err := ParseVariant(c.Variant)
	if err != nil {
		return scenario{}, err
	}
	extra := make([]graph.NodeID, len(c.ExtraSources))
	for i, s := range c.ExtraSources {
		extra[i] = graph.NodeID(s)
	}
	crashes := make([]core.Crash, len(c.Crashes))
	for i, cr := range c.Crashes {
		crashes[i] = core.Crash{Node: graph.NodeID(cr.Node), Time: cr.Time}
	}
	churn := make([]core.ChurnEvent, len(c.Churn))
	for i, ev := range c.Churn {
		op := core.ChurnLeave
		if ev.Op == ChurnOpJoin {
			op = core.ChurnJoin
		}
		churn[i] = core.ChurnEvent{Node: graph.NodeID(ev.Node), Time: ev.Time, Op: op, DropState: ev.DropState}
	}
	s := scenario{async: c.Timing == TimingAsync, src: graph.NodeID(c.Source), variant: variant, quasirandom: c.Quasirandom}
	prob, dynamic := 1-c.LossProb, c.Dynamic != ""
	if s.async {
		s.asyncCfg = core.AsyncConfig{Protocol: proto, View: view, TransmitProb: prob,
			ExtraSources: extra, Crashes: crashes, Churn: churn}
		err = core.CheckScenario(s.asyncCfg, variant, c.Quasirandom, dynamic)
	} else if c.View != "" {
		err = fmt.Errorf("view %q requires async timing", c.View)
	} else {
		s.syncCfg = core.SyncConfig{Protocol: proto, TransmitProb: prob,
			ExtraSources: extra, Crashes: crashes, Churn: churn}
		err = core.CheckScenario(s.syncCfg, variant, c.Quasirandom, dynamic)
	}
	if err != nil {
		return scenario{}, err
	}
	return s, nil
}

// newTrial builds one trial of the scenario on topo.
func (s *scenario) newTrial(topo graph.Provider) (*core.Trial, error) {
	if s.async {
		return core.NewTrial(topo, s.src, s.asyncCfg, s.variant, s.quasirandom)
	}
	return core.NewTrial(topo, s.src, s.syncCfg, s.variant, s.quasirandom)
}

// CoverageName renders a coverage fraction as a milestone name: 0.5 →
// "q50", 0.99 → "q99", 1.0 → "q100". Reducers reading CellResult.Coverage
// should use it rather than formatting fractions themselves.
func CoverageName(frac float64) string {
	var buf [32]byte
	return intern(appendCoverageName(buf[:0], frac))
}

// appendCoverageName appends CoverageName(frac) to b.
func appendCoverageName(b []byte, frac float64) []byte {
	b = append(b, 'q')
	pct := frac * 100
	if r := math.Round(pct); math.Abs(pct-r) < 1e-9 {
		return strconv.AppendInt(b, int64(int(r)), 10)
	}
	return appendFloat(b, pct)
}

// runTimeCell samples the cell's spreading times and folds the trials'
// coverage milestones into the cell's.
func runTimeCell(ctx context.Context, cell CellSpec, g *graph.Graph, trialWorkers int) (*KindResult, error) {
	// Crash injection can legitimately cut the rumor off from part of
	// the graph, churn can strand it, and a dynamic topology may never
	// visit the edges some node needs; only cells free of all three
	// insist on full coverage.
	requireComplete := len(cell.Crashes) == 0 && len(cell.Churn) == 0 && cell.Dynamic == ""
	fold := NewTimeFold(cell)
	times, err := RunTrials(ctx, cell, g, trialWorkers, func(t int, out core.Outcome) (float64, error) {
		fold.Add(t, out)
		if requireComplete {
			return out.SpreadingTime()
		}
		return out.Time(), nil
	})
	if err != nil {
		return nil, err
	}
	return fold.Result(times), nil
}

// TimeFold is the per-trial to per-cell fold of a time cell, shared by
// every runner that measures one (the time kind on simulated trials, the
// live cluster on real ones): each trial's coverage milestones are
// extracted with the batch helper (a count per round for sync trials, a
// selection per fraction for async ones; neither sorts), and Result
// averages each milestone over the trials.
type TimeFold struct {
	fracs    []float64
	coverage [][]float64 // coverage[i][t]: trial t's time to fracs[i]
	work     atomic.Int64
}

// NewTimeFold sizes a fold for cell.Trials trials of cell's milestones.
func NewTimeFold(cell CellSpec) *TimeFold {
	f := &TimeFold{fracs: cell.effectiveCoverage()}
	f.coverage = make([][]float64, len(f.fracs))
	for i := range f.coverage {
		f.coverage[i] = make([]float64, cell.Trials)
	}
	return f
}

// Add records trial t's outcome. Distinct trials may be added
// concurrently.
func (f *TimeFold) Add(t int, out core.Outcome) {
	f.work.Add(out.Work())
	for i, v := range out.Coverage(f.fracs) {
		f.coverage[i][t] = v
	}
}

// Result is the cell's KindResult over the added trials: times as given,
// each milestone under its CoverageName as the mean over the trials, -1
// if any trial never reached it.
func (f *TimeFold) Result(times []float64) *KindResult {
	cov := make(map[string]float64, len(f.fracs))
	for i, frac := range f.fracs {
		cov[CoverageName(frac)] = meanOrUnreached(f.coverage[i])
	}
	return &KindResult{Times: times, Coverage: cov, Work: f.work.Load()}
}

// RunTrials translates the cell (see CellSpec.scenario) into core trials
// on g, runs cell.Trials of them through harness.Runner's pooled trial loop,
// and returns measure's value per trial. Per-trial seeding comes from
// the Runner, so the sample is identical for any worker count. A
// scenario the built graph cannot host (a source or schedule node
// outside it) fails with ErrBadSpec wrapping the core cause.
func RunTrials(ctx context.Context, cell CellSpec, g *graph.Graph, trialWorkers int, measure func(trial int, out core.Outcome) (float64, error)) ([]float64, error) {
	sc, err := cell.scenario()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	newTopo, err := topology(cell, g)
	if err != nil {
		return nil, err
	}
	newTrial := func() (*core.Trial, error) {
		topo, err := newTopo()
		if err != nil {
			return nil, err
		}
		trial, err := sc.newTrial(topo)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
		return trial, nil
	}
	r := harness.Runner{Trials: cell.Trials, Seed: cell.TrialSeed, Workers: trialWorkers}
	return r.RunTrials(ctx, newTrial, func(t int, out core.Outcome, err error) (float64, error) {
		// Dynamic topologies lose reachability-based early termination,
		// so a never-connecting sequence runs to the budget; those
		// trials report the partial spread (unreached milestones
		// collapse to -1) instead of failing the cell.
		if err != nil && !(cell.Dynamic != "" && errors.Is(err, core.ErrBudget)) {
			return 0, err
		}
		return measure(t, out)
	})
}

// meanOrUnreached averages a coverage series, collapsing to -1 if any
// trial never reached the milestone (a -1 entry): a partial mean would
// silently mix reached and unreached trials.
func meanOrUnreached(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		if x < 0 {
			return -1
		}
		sum += x
	}
	if len(xs) == 0 {
		return -1
	}
	return sum / float64(len(xs))
}
