// Package experiments regenerates every empirical claim extracted from
// the paper. The paper is a theory paper with no tables or figures; its
// "evaluation" is a set of theorems, corollaries, lemmas, and worked
// examples, each of which maps here to one experiment (E1–E15) that
// prints the measured analogue next to the paper's prediction and issues
// a verdict.
//
// Every experiment is a grid of service cells plus a pure reducer: the
// Cells function declares what to measure (as service.CellSpec values,
// including the experiment-specific kinds registered in kinds.go) and
// the Reduce function folds the cell results into tables and a verdict.
// All parallelism, deduplication, and caching are delegated to the
// shared cell executor — experiments own no goroutines. The same grids
// run locally (cmd/experiments), under the rumord scheduler
// (POST /v1/experiments/{id}), or in tests, and produce byte-identical
// results in each case.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"rumor/internal/service"
	"rumor/internal/stats"
)

// Verdict classifies an experiment outcome.
type Verdict int

// Verdicts.
const (
	// Supported: the measured behaviour matches the paper's prediction.
	Supported Verdict = iota + 1
	// Borderline: the trend matches but a statistic fell near the test
	// threshold (often a statistical fluctuation at the configured trial
	// count).
	Borderline
	// Failed: the measurement contradicts the prediction.
	Failed
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Supported:
		return "SUPPORTED"
	case Borderline:
		return "BORDERLINE"
	case Failed:
		return "FAILED"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// MarshalJSON renders the verdict as its string name.
func (v Verdict) MarshalJSON() ([]byte, error) { return json.Marshal(v.String()) }

// UnmarshalJSON parses a verdict name.
func (v *Verdict) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "SUPPORTED":
		*v = Supported
	case "BORDERLINE":
		*v = Borderline
	case "FAILED":
		*v = Failed
	default:
		return fmt.Errorf("experiments: unknown verdict %q", s)
	}
	return nil
}

// Config controls experiment execution.
type Config struct {
	// Quick shrinks sizes and trial counts for smoke runs.
	Quick bool
	// Seed is the root seed (default 20160725, the PODC'16 opening day).
	Seed uint64
	// Workers caps cell-level parallelism of the default local runner;
	// 0 = GOMAXPROCS. This is the suite's single parallelism knob: when
	// Runner is set (e.g. the rumord scheduler), that runner's own
	// worker pool governs instead and Workers is ignored.
	Workers int
	// Out receives human-readable tables; nil discards them.
	Out io.Writer
	// Runner executes the experiment's cells; nil selects an in-process
	// executor (NewLocalRunner) with Workers cells in flight and the
	// graph tier enabled.
	Runner service.CellRunner
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 20160725
	}
	return c.Seed
}

// pick returns quick when cfg.Quick and full otherwise.
func (c Config) pick(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

func (c Config) runner() service.CellRunner {
	if c.Runner != nil {
		return c.Runner
	}
	return NewLocalRunner(c.Workers, false)
}

// NewLocalRunner returns an in-process cell runner — the same executor
// the rumord workers use — with workers cells in flight (0 =
// GOMAXPROCS) and the constructed-graph tier enabled, so experiments
// sharing a graph instance build it once. withResults additionally
// enables the completed-cell LRU: repeated cells (within a suite run or
// across runs on one runner) are then served from cache.
func NewLocalRunner(workers int, withResults bool) *service.Executor {
	e := &service.Executor{
		CellWorkers: workers,
		Graphs:      service.NewGraphCache(0),
	}
	if withResults {
		e.Results = service.NewResultCache(0)
	}
	return e
}

// Outcome reports one experiment run.
type Outcome struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Verdict Verdict `json:"verdict"`
	// Summary is a one-line paper-vs-measured digest.
	Summary string `json:"summary"`
	// Details holds the rendered tables (also written to Config.Out).
	Details string `json:"details,omitempty"`
}

// Experiment is a runnable reproduction of one paper claim, declared as
// a cell grid plus a reducer.
type Experiment struct {
	// ID is the experiment identifier ("E1".."E15", "E17"; E16 is the
	// live gossip overlay, which runs outside this suite).
	ID string
	// Title is a short name.
	Title string
	// Claim quotes the paper statement being checked.
	Claim string
	// Cells returns the experiment's measurement grid for cfg. It must
	// be deterministic in cfg (same cfg, same cells) and cheap: no
	// simulation happens here.
	Cells func(cfg Config) []service.CellSpec
	// Reduce folds the cell results (same order as Cells) into the
	// outcome's Verdict and Summary, writing tables to cfg.Out. It is
	// pure: tables and verdict are functions of the results alone. Run,
	// RunAll and the HTTP endpoint fill in the outcome's ID, Title and
	// Details.
	Reduce func(cfg Config, results []*service.CellResult) (*Outcome, error)
}

// Run executes the experiment's cells on cfg's runner and reduces them,
// writing to cfg.Out the `=== ID: Title ===` header with the claim, the
// tables, and the `ID verdict:` line.
func (e Experiment) Run(cfg Config) (*Outcome, error) {
	fmt.Fprintf(cfg.out(), "=== %s: %s ===\n%s\n\n", e.ID, e.Title, e.Claim)
	results, err := cfg.runner().RunCells(context.Background(), e.Cells(cfg))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
	}
	o, err := e.reduce(cfg, results)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out(), "%s verdict: %v — %s\n", e.ID, o.Verdict, o.Summary)
	return o, nil
}

// reduce is the one path from cell results to an outcome: it runs
// e.Reduce with the tables teed into the outcome's Details and stamps
// the experiment's ID and Title on it.
func (e Experiment) reduce(cfg Config, results []*service.CellResult) (*Outcome, error) {
	var details strings.Builder
	cfg.Out = io.MultiWriter(cfg.out(), &details)
	o, err := e.Reduce(cfg, results)
	if err != nil {
		return nil, err
	}
	o.ID, o.Title, o.Details = e.ID, e.Title, details.String()
	return o, nil
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		E01Star(),
		E02Theorem1(),
		E03Theorem2(),
		E04Corollary3(),
		E05AsyncPushVsPushPull(),
		E06SyncPushVsAsyncPush(),
		E07CouplingLadder(),
		E08BlockCoupling(),
		E09SocialNetworks(),
		E10AsyncViews(),
		E11DiamondChain(),
		E12Lemma8(),
		E13Throughput(),
		E14ExpansionBounds(),
		E15Quasirandom(),
		E17DynamicChurn(),
	}
}

// ByID returns the experiment with the given ID (case-insensitive).
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAll executes every experiment and returns outcomes in order,
// followed by a rendered summary table on cfg.Out. Each outcome's
// Details field captures that experiment's rendered tables. All
// experiments share one runner (cfg.Runner, or a fresh local runner),
// so graphs repeated across experiments are built once and — with a
// result-caching runner — cells repeated across experiments (e.g. the
// E2/E3 shared grid) are computed once.
func RunAll(cfg Config) ([]*Outcome, error) {
	if cfg.Runner == nil {
		cfg.Runner = NewLocalRunner(cfg.Workers, false)
	}
	var outcomes []*Outcome
	for _, e := range All() {
		fmt.Fprintln(cfg.out())
		o, err := e.Run(cfg)
		if err != nil {
			return outcomes, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		outcomes = append(outcomes, o)
	}
	fmt.Fprintf(cfg.out(), "\n=== Summary ===\n")
	tab := stats.NewTable("id", "title", "verdict", "summary")
	for _, o := range outcomes {
		tab.AddRow(o.ID, o.Title, o.Verdict.String(), o.Summary)
	}
	if err := tab.Render(cfg.out()); err != nil {
		return outcomes, err
	}
	return outcomes, nil
}

// worst returns the worst verdict of the arguments.
func worst(vs ...Verdict) Verdict {
	w := Supported
	for _, v := range vs {
		if v > w {
			w = v
		}
	}
	return w
}

// atMost judges a statistic the claim bounds from above: Supported up
// to and including the supported edge, Borderline up to and including
// the borderline edge, Failed beyond it or when x is NaN.
func atMost(x, supported, borderline float64) Verdict {
	switch {
	case x <= supported:
		return Supported
	case x <= borderline:
		return Borderline
	}
	return Failed
}

// atLeast judges a statistic the claim bounds from below (a p-value,
// a ratio that must not shrink): atMost with every sign flipped.
func atLeast(x, supported, borderline float64) Verdict {
	return atMost(-x, -supported, -borderline)
}

// holds judges a check with no statistic to band: Supported when ok,
// otherwise the verdict a miss costs.
func holds(ok bool, otherwise Verdict) Verdict {
	if ok {
		return Supported
	}
	return otherwise
}

// sortedKeys returns the sorted keys of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cursor walks cell results in canonical order, so reducers can consume
// them with the same loop structure that declared the cells.
type cursor struct {
	results []*service.CellResult
	i       int
}

func (c *cursor) next() *service.CellResult {
	r := c.results[c.i]
	c.i++
	return r
}

// timeCell builds a spreading-time cell (the default kind) with the
// experiment package's conventions: the graph instance derives from the
// root seed, the trial stream from root+offset (so distinct
// measurements on one graph get independent randomness).
func timeCell(family string, n int, protocol, timing string, trials int, root, offset uint64, source int) service.CellSpec {
	return service.CellSpec{
		Family:    family,
		N:         n,
		Protocol:  protocol,
		Timing:    timing,
		Trials:    trials,
		GraphSeed: root,
		TrialSeed: root + offset,
		Source:    source,
	}
}
