// Package service turns the one-shot simulation harness into a
// long-running batch service: jobs are grids of simulation cells
// (graph family × size × protocol × timing × trials × seed), each cell
// a pure function of its spec. Cells are canonically hashed, executed on
// a bounded worker pool, cached by hash (determinism makes cache hits
// exact), and streamed back to clients as NDJSON while the job runs.
//
// The cell model is the repository's single execution spine: the rumord
// daemon, the rumorsim CLI, and the experiment suite all express
// their measurements as cells and run them through the same executor, so
// any result computed anywhere is cache-shareable everywhere.
//
// Everything here preserves the repository invariant that results are a
// pure function of the spec: scheduling order, worker count, and cache
// state never change what a job returns — only how fast.
package service

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"rumor/internal/api"
	"rumor/internal/core"
	"rumor/internal/harness"
	"rumor/internal/stats"
)

// Timing selects the timing model of a cell.
const (
	TimingSync  = "sync"
	TimingAsync = "async"
)

// CellKeyVersion is the version tag of the canonical cell-key
// rendering. Any change to the canonical form must bump it: persistent
// caches (internal/cachestore) stamp every record with the version
// they were written under and refuse to serve records from any other
// (outside an explicit compat list), so a bump invalidates stale
// entries instead of aliasing them.
//
// Bumps are append-only: each version re-keys only the specs whose
// measurement it changed, and every other spec keeps rendering its
// byte-identical older form, so every key — and every record in a
// persistent cache — written for those specs stays valid. v3 added the
// dynamic-topology and churn fields; only specs that set one render
// "v3|". v4 moved crash-only per-node/per-edge asynchronous cells from
// the event-heap engines onto the thinning stepper, which consumes
// randomness differently; only those cells render "v4|" (see
// CellSpec.keyVersion). Callers opening a cachestore should pass
// CellKeyCompatVersions so older stores replay without recomputation.
const CellKeyVersion = "v4"

// Older canonical rendering versions, still produced verbatim by the
// specs the later bumps did not touch.
const (
	CellKeyVersionV2 = "v2"
	CellKeyVersionV3 = "v3"
)

// CellKeyCompatVersions lists older key versions whose canonical
// renderings (and therefore keys) are still produced unchanged by the
// current code. Persistent caches opened with these as compat versions
// serve their existing records instead of discarding them.
func CellKeyCompatVersions() []string { return []string{CellKeyVersionV2, CellKeyVersionV3} }

// Dynamic topology modes (CellSpec.Dynamic).
const (
	// DynamicResample re-draws the graph from its family each epoch
	// (epoch 0 is the cell's base graph; epoch e uses the family builder
	// re-seeded with mixSeed(GraphSeed, e)).
	DynamicResample = "resample"
	// DynamicPerturb evolves the graph edge-Markovian-ly each epoch:
	// every edge is dropped with probability PerturbRate and fresh edges
	// arrive at the matching density (see graph.NewPerturb).
	DynamicPerturb = "perturb"
)

// Spec validation errors.
var (
	ErrBadSpec = errors.New("service: invalid job spec")
	// errCellTooLarge marks the ErrBadSpec of a cell over the admission
	// limits, so HTTP can answer with its own code.
	errCellTooLarge = errors.New("cell too large")
)

// checkCellSize refuses an n, a trial count or a graph adjacency above
// the admission limits; edges is the family's estimate (nil for a
// graphless kind). Validation runs before a job is queued or a graph or
// sample is allocated, so a hostile size costs nothing.
func checkCellSize(edges func(n int) float64, n, trials int) error {
	if n > api.MaxCellNodes {
		return fmt.Errorf("%w: n = %d (limit %d): %w", ErrBadSpec, n, api.MaxCellNodes, errCellTooLarge)
	}
	if trials > api.MaxCellTrials {
		return fmt.Errorf("%w: trials = %d (limit %d): %w", ErrBadSpec, trials, api.MaxCellTrials, errCellTooLarge)
	}
	if edges == nil {
		return nil
	}
	if bytes := 8*float64(n+1) + 8*edges(n); bytes > api.MaxCellBytes {
		return fmt.Errorf("%w: n = %d needs ~%.3g GiB of adjacency (limit %d GiB): %w",
			ErrBadSpec, n, bytes/(1<<30), api.MaxCellBytes>>30, errCellTooLarge)
	}
	return nil
}

// CrashSpec schedules a fail-stop crash: from Time on (round number for
// synchronous cells, continuous time for asynchronous ones) the node
// neither initiates nor answers contacts.
type CrashSpec struct {
	Node int     `json:"node"`
	Time float64 `json:"time"`
}

// Churn operation names (ChurnSpec.Op).
const (
	// ChurnOpLeave takes the node offline at Time; unlike a crash it may
	// rejoin later.
	ChurnOpLeave = "leave"
	// ChurnOpJoin brings a previously offline node back at Time.
	ChurnOpJoin = "join"
)

// ChurnSpec schedules a node-churn event (the join/leave
// generalization of CrashSpec): at Time the node leaves the network or
// rejoins it, optionally dropping its rumor state on rejoin. Same-time
// events apply in their listed order (after any same-time crashes), and
// that order is part of the cell's identity.
type ChurnSpec struct {
	Node int     `json:"node"`
	Time float64 `json:"time"`
	// Op is "leave" or "join".
	Op string `json:"op"`
	// DropState makes a join amnesiac: the node rejoins uninformed even
	// if it held the rumor when it left. Invalid on leaves.
	DropState bool `json:"drop_state,omitempty"`
}

// CellSpec is one simulation measurement: a graph instance (family,
// size, graph seed), a process (protocol, timing, and optional scenario
// modifiers), and a sample size (trials, trial seed). It is the unit of
// scheduling and caching.
//
// The spec covers the full scenario space of internal/core: the three
// equivalent asynchronous views, the paper's auxiliary ppx/ppy
// processes, the quasirandom protocol, lossy channels, multi-source
// starts, crash injection, and partial-coverage milestones. Kind selects
// the measurement itself from the cell-kind registry (see RegisterKind);
// the default kind, "time", samples spreading times.
type CellSpec struct {
	// Kind names the registered measurement; "" means KindTime.
	Kind string `json:"kind,omitempty"`
	// Family is a standard graph family name (harness.FamilyNames).
	// Kinds that run without a graph require it to be empty.
	Family string `json:"family,omitempty"`
	// N is the target node count; the family may round it.
	N int `json:"n,omitempty"`
	// Protocol is "push", "pull", or "push-pull".
	Protocol string `json:"protocol,omitempty"`
	// Timing is "sync" or "async".
	Timing string `json:"timing,omitempty"`
	// View selects the asynchronous process implementation for async
	// cells: "global-clock" (default), "per-node-clocks", or
	// "per-edge-clocks". The three views are provably the same process;
	// they are distinct measurements (and cache keys) because they
	// consume randomness differently.
	View string `json:"view,omitempty"`
	// Variant selects one of the paper's auxiliary synchronous
	// processes, "ppx" or "ppy" (sync push-pull only).
	Variant string `json:"variant,omitempty"`
	// Quasirandom selects the quasirandom protocol (sync only).
	Quasirandom bool `json:"quasirandom,omitempty"`
	// LossProb is the per-contact probability that the transmission is
	// lost (the engine's TransmitProb is 1 - LossProb). 0 is the
	// paper's lossless model; values in [0, 1) are valid.
	LossProb float64 `json:"loss_prob,omitempty"`
	// Trials is the number of independent trials (>= 1).
	Trials int `json:"trials"`
	// GraphSeed drives graph construction. Cells sharing
	// (Family, N, GraphSeed) run on the same graph instance, which the
	// graph cache exploits: a push/sync cell and a pull/async cell of
	// the same sweep reuse one adjacency structure.
	GraphSeed uint64 `json:"graph_seed"`
	// TrialSeed roots the per-trial RNG streams (trial t uses Child(t)).
	TrialSeed uint64 `json:"trial_seed"`
	// Source is the rumor source node; one outside the built graph
	// fails the cell at run time (the family may round N, so the node
	// count is not known at submit time).
	Source int `json:"source"`
	// ExtraSources are additional nodes informed at time 0
	// (multi-source extension), range-checked like Source.
	ExtraSources []int `json:"extra_sources,omitempty"`
	// Crashes is an optional fail-stop schedule (extension).
	Crashes []CrashSpec `json:"crashes,omitempty"`
	// Dynamic selects a time-varying topology: "" (static, the
	// default), "resample" (a fresh graph from the family each epoch),
	// or "perturb" (edge-Markovian evolution at PerturbRate per epoch).
	// Dynamic cells render the v3 canonical key form.
	Dynamic string `json:"dynamic,omitempty"`
	// DynamicPeriod is the epoch length in simulation time (rounds for
	// sync cells, continuous time for async ones); 0 means 1 (one epoch
	// per round / per unit time). Requires Dynamic.
	DynamicPeriod float64 `json:"dynamic_period,omitempty"`
	// PerturbRate is the per-epoch edge flip rate in (0, 1] for
	// Dynamic == "perturb"; it must be zero otherwise.
	PerturbRate float64 `json:"perturb_rate,omitempty"`
	// Churn is an optional join/leave schedule generalizing Crashes
	// (nodes may rejoin, with or without their rumor state). Like
	// Dynamic it renders the v3 key form.
	Churn []ChurnSpec `json:"churn,omitempty"`
	// CoverageFracs are the partial-coverage milestones reported in the
	// result's Coverage map; nil selects the default 0.5, 0.9, 1.0 for
	// the time kind. Fractions are in (0, 1].
	CoverageFracs []float64 `json:"coverage_fracs,omitempty"`
	// Params carries kind-specific numeric parameters (e.g. the
	// spectral-gap kind's power-iteration count). The time kind accepts
	// none. Keys participate in the cache key in sorted order.
	Params map[string]float64 `json:"params,omitempty"`
}

// kind returns the effective kind name.
func (c CellSpec) kind() string {
	if c.Kind == "" {
		return KindTime
	}
	return c.Kind
}

// defaultCoverage is the coverage milestones a time cell reports when
// it names none, and defaultCoverageCanonical their canonical rendering,
// which appendCanonical writes for most cells.
var (
	defaultCoverage          = []float64{0.5, 0.9, 1.0}
	defaultCoverageCanonical = appendFloats(nil, defaultCoverage)
)

// effectiveCoverage returns the coverage milestones the cell reports,
// sorted and without repeats: a result's coverage is a map by milestone
// name, so their order and repeats are not part of the measurement.
// Validate refuses two fractions that share a name (CoverageName
// rounds), so each milestone has its own entry.
func (c CellSpec) effectiveCoverage() []float64 {
	if c.usesDefaultCoverage() {
		return slices.Clone(defaultCoverage)
	}
	fracs := slices.Clone(c.CoverageFracs)
	slices.Sort(fracs)
	return slices.Compact(fracs)
}

// checkCoverageNames refuses two distinct fractions with one milestone
// name: the result's Coverage map is keyed by name, so one of the two
// values would be dropped. The fractions with one name form an interval
// (CoverageName rounds the percentage), so once the list is sorted any
// such pair has a neighbouring one. A list given sorted is checked in
// place, without allocating.
func checkCoverageNames(fracs []float64) error {
	if !slices.IsSorted(fracs) {
		fracs = slices.Clone(fracs)
		slices.Sort(fracs)
	}
	var prev, cur [32]byte
	for i := 1; i < len(fracs); i++ {
		if fracs[i] == fracs[i-1] {
			continue
		}
		if string(appendCoverageName(prev[:0], fracs[i-1])) == string(appendCoverageName(cur[:0], fracs[i])) {
			return fmt.Errorf("%w: coverage fractions %v and %v share the milestone name %q",
				ErrBadSpec, fracs[i-1], fracs[i], CoverageName(fracs[i]))
		}
	}
	return nil
}

// usesDefaultCoverage reports whether the cell reports the default
// milestones.
func (c CellSpec) usesDefaultCoverage() bool {
	return len(c.CoverageFracs) == 0 && c.kind() == KindTime
}

// dynamicScenario reports whether any v3 field is set; such cells
// render the extended v3 canonical form.
func (c CellSpec) dynamicScenario() bool {
	return c.Dynamic != "" || c.DynamicPeriod != 0 || c.PerturbRate != 0 || len(c.Churn) > 0
}

// keyVersion returns the version prefix of the cell's canonical form:
// v3 for dynamic scenarios, v4 for the static time cells whose result
// bytes moved when the event-heap engines were deleted (asynchronous,
// per-node or per-edge view, with crashes), and the original v2 for
// everything else, which is what keeps older cache keys and persisted
// records valid.
func (c CellSpec) keyVersion() string {
	if c.dynamicScenario() {
		return CellKeyVersionV3
	}
	if c.kind() == KindTime && c.Timing == TimingAsync && len(c.Crashes) > 0 {
		if view, err := ParseView(c.View); err == nil && view != core.GlobalClock {
			return CellKeyVersion
		}
	}
	return CellKeyVersionV2
}

// effectiveDynamicPeriod returns the epoch length with the default made
// explicit, so period 0 and period 1 hash identically on dynamic cells.
func (c CellSpec) effectiveDynamicPeriod() float64 {
	if c.Dynamic != "" && c.DynamicPeriod == 0 {
		return 1
	}
	return c.DynamicPeriod
}

// fmtFloat renders a float64 canonically (shortest exact form).
func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// appendFloat appends fmtFloat's rendering of f to b, with -0 rendered
// as 0: no field of a cell tells the two apart.
func appendFloat(b []byte, f float64) []byte {
	if f == 0 {
		f = 0
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendName appends the name of the value parse reads from name, so
// that every spelling a parser accepts renders as one. A name it rejects
// is rendered as given, and "" (no name) as nothing.
func appendName[T fmt.Stringer](b []byte, name string, parse func(string) (T, error)) []byte {
	if name == "" {
		return b
	}
	if v, err := parse(name); err == nil {
		return append(b, v.String()...)
	}
	return append(b, name...)
}

// appendFloats appends fs to b with appendFloat, comma-separated.
func appendFloats(b []byte, fs []float64) []byte {
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, f)
	}
	return b
}

// Key returns the canonical cache key of the cell: a SHA-256 hash of an
// unambiguous rendering of every field, normalized so that equivalent
// specs hash identically: defaults are made explicit (kind, async view,
// coverage milestones), protocol, view and variant names are rendered by
// the parsed value's name (any case, any alias), -0 is rendered as 0,
// extra sources are sorted and deduplicated and the source is dropped
// from them, crash schedules are sorted and, unless the churn has a
// join, keep one crash per node at its earliest time, coverage
// fractions are sorted and deduplicated, and params are rendered in
// sorted key order. Two cells share a key iff they are the same
// measurement, and determinism guarantees equal results.
//
// The rendering is versioned (CellKeyVersion); any change to the
// canonical form must bump the version so stale persisted caches can
// never alias. The golden-key tests pin the current form, and
// FuzzCellSpecKey guards its round-trip stability.
func (c CellSpec) Key() string {
	var buf [256]byte
	sum := sha256.Sum256(c.appendCanonical(buf[:0]))
	var key [32]byte
	hex.Encode(key[:], sum[:16])
	return string(key[:])
}

// canonical renders the unambiguous, normalized form Key hashes. Two
// specs share a canonical form iff they are the same measurement.
//
// The form is versioned per spec, not globally (see keyVersion): the
// "v2|..." string is the original rendering (pinned by the golden
// regression tests), "v3|..." is the v2 body with the dynamic fields
// appended, and "v4|..." is the v2 body unchanged.
func (c CellSpec) canonical() string { return string(c.appendCanonical(nil)) }

// appendCanonical appends the canonical form to b. Keys are rendered
// once per cell on every submit, hash and run, so this writes bytes
// with strconv's appenders rather than through fmt.
func (c CellSpec) appendCanonical(b []byte) []byte {
	b = append(b, c.keyVersion()...)
	b = append(b, "|kind="...)
	b = append(b, c.kind()...)
	b = append(b, "|family="...)
	b = append(b, c.Family...)
	b = append(b, "|n="...)
	b = strconv.AppendInt(b, int64(c.N), 10)
	b = append(b, "|protocol="...)
	b = appendName(b, c.Protocol, ParseProtocol)
	b = append(b, "|timing="...)
	b = append(b, c.Timing...)
	b = append(b, "|view="...)
	view := c.View
	if c.Timing == TimingAsync {
		view = cmp.Or(view, core.GlobalClock.String()) // the default made explicit
	}
	b = appendName(b, view, ParseView)
	b = append(b, "|variant="...)
	b = appendName(b, c.Variant, ParseVariant)
	b = append(b, "|qr="...)
	b = strconv.AppendBool(b, c.Quasirandom)
	b = append(b, "|loss="...)
	b = appendFloat(b, c.LossProb)
	b = append(b, "|trials="...)
	b = strconv.AppendInt(b, int64(c.Trials), 10)
	b = append(b, "|gseed="...)
	b = strconv.AppendUint(b, c.GraphSeed, 10)
	b = append(b, "|tseed="...)
	b = strconv.AppendUint(b, c.TrialSeed, 10)
	b = append(b, "|source="...)
	b = strconv.AppendInt(b, int64(c.Source), 10)

	b = append(b, "|extra="...)
	extras := slices.Clone(c.ExtraSources)
	slices.Sort(extras)
	// Neither a duplicate nor the source itself changes the process.
	extras = slices.DeleteFunc(slices.Compact(extras), func(v int) bool { return v == c.Source })
	for i, v := range extras {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}

	b = append(b, "|crash="...)
	crashes := slices.Clone(c.Crashes)
	if len(crashes) > 1 && !slices.ContainsFunc(c.Churn, func(ev ChurnSpec) bool { return ev.Op == ChurnOpJoin }) {
		// With no join to bring it back, a crashed node's later crashes
		// find it offline and do nothing: keep each node's earliest, in
		// the slot of its first listed crash.
		slot := make(map[int]int, len(crashes))
		kept := crashes[:0]
		for _, cr := range crashes {
			if k, ok := slot[cr.Node]; ok {
				kept[k].Time = min(kept[k].Time, cr.Time)
				continue
			}
			slot[cr.Node] = len(kept)
			kept = append(kept, cr)
		}
		crashes = kept
	}
	slices.SortFunc(crashes, func(x, y CrashSpec) int {
		if x.Time != y.Time {
			return lessCmp(x.Time, y.Time)
		}
		return cmp.Compare(x.Node, y.Node)
	})
	for i, cr := range crashes {
		if i > 0 {
			b = append(b, ';')
		}
		b = strconv.AppendInt(b, int64(cr.Node), 10)
		b = append(b, '@')
		b = appendFloat(b, cr.Time)
	}

	b = append(b, "|cov="...)
	if c.usesDefaultCoverage() {
		b = append(b, defaultCoverageCanonical...)
	} else {
		b = appendFloats(b, c.effectiveCoverage())
	}

	b = append(b, "|params="...)
	keys := make([]string, 0, len(c.Params))
	for k := range c.Params {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = appendFloat(b, c.Params[k])
	}

	if c.dynamicScenario() {
		b = append(b, "|dyn="...)
		b = append(b, c.Dynamic...)
		b = append(b, "|dynperiod="...)
		b = appendFloat(b, c.effectiveDynamicPeriod())
		b = append(b, "|dynrate="...)
		b = appendFloat(b, c.PerturbRate)
		b = append(b, "|churn="...)
		churn := slices.Clone(c.Churn)
		// Stable by time only: same-time events apply in listed order,
		// so that order is part of the measurement's identity.
		slices.SortStableFunc(churn, func(x, y ChurnSpec) int { return lessCmp(x.Time, y.Time) })
		for i, ev := range churn {
			if i > 0 {
				b = append(b, ';')
			}
			b = strconv.AppendInt(b, int64(ev.Node), 10)
			b = append(b, '@')
			b = appendFloat(b, ev.Time)
			b = append(b, ':')
			b = append(b, ev.Op...)
			if ev.DropState {
				b = append(b, "-drop"...)
			}
		}
	}
	return b
}

// lessCmp is x < y as a comparator: negative iff x < y. The sorts only
// test a comparison's sign, so the canonical order of times is the one
// the < ordering always gave, NaN included.
func lessCmp(x, y float64) int {
	switch {
	case x < y:
		return -1
	case y < x:
		return 1
	}
	return 0
}

// GraphKey identifies the graph instance the cell runs on; cells that
// share it can share one constructed graph.
func (c CellSpec) GraphKey() string {
	var buf [64]byte
	b := append(append(buf[:0], c.Family...), '|')
	b = append(strconv.AppendInt(b, int64(c.N), 10), '|')
	return string(strconv.AppendUint(b, c.GraphSeed, 10))
}

// Validate checks the cell against the kind registry, the family
// registry, and the kind's own scenario constraints.
func (c CellSpec) Validate() error {
	kind, err := KindByName(c.kind())
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	var edges func(int) float64
	if kind.NeedsGraph {
		fam, err := harness.FamilyByName(c.Family)
		if err != nil {
			return fmt.Errorf("%w: unknown family %q", ErrBadSpec, c.Family)
		}
		edges = fam.Edges
		if c.N < 1 {
			return fmt.Errorf("%w: n = %d", ErrBadSpec, c.N)
		}
	} else {
		if c.Family != "" || c.N != 0 || c.GraphSeed != 0 {
			return fmt.Errorf("%w: kind %q runs without a graph; family/n/graph_seed must be empty", ErrBadSpec, c.kind())
		}
	}
	if c.Trials < 1 {
		return fmt.Errorf("%w: trials = %d", ErrBadSpec, c.Trials)
	}
	if err := checkCellSize(edges, c.N, c.Trials); err != nil {
		return err
	}
	if c.Source < 0 {
		return fmt.Errorf("%w: source = %d", ErrBadSpec, c.Source)
	}
	if c.LossProb < 0 || c.LossProb >= 1 || math.IsNaN(c.LossProb) {
		return fmt.Errorf("%w: loss_prob = %v (want [0, 1))", ErrBadSpec, c.LossProb)
	}
	for _, s := range c.ExtraSources {
		if s < 0 {
			return fmt.Errorf("%w: extra source = %d", ErrBadSpec, s)
		}
	}
	for _, cr := range c.Crashes {
		if cr.Node < 0 {
			return fmt.Errorf("%w: crash node = %d", ErrBadSpec, cr.Node)
		}
		if cr.Time < 0 || math.IsNaN(cr.Time) || math.IsInf(cr.Time, 0) {
			return fmt.Errorf("%w: crash time = %v", ErrBadSpec, cr.Time)
		}
	}
	switch c.Dynamic {
	case "":
		if c.DynamicPeriod != 0 {
			return fmt.Errorf("%w: dynamic_period requires dynamic", ErrBadSpec)
		}
		if c.PerturbRate != 0 {
			return fmt.Errorf("%w: perturb_rate requires dynamic = %q", ErrBadSpec, DynamicPerturb)
		}
	case DynamicResample, DynamicPerturb:
		if c.DynamicPeriod < 0 || math.IsNaN(c.DynamicPeriod) || math.IsInf(c.DynamicPeriod, 0) {
			return fmt.Errorf("%w: dynamic_period = %v", ErrBadSpec, c.DynamicPeriod)
		}
		if c.Dynamic == DynamicPerturb {
			if !(c.PerturbRate > 0 && c.PerturbRate <= 1) {
				return fmt.Errorf("%w: perturb_rate = %v (want (0, 1])", ErrBadSpec, c.PerturbRate)
			}
		} else if c.PerturbRate != 0 {
			return fmt.Errorf("%w: perturb_rate is a %q option", ErrBadSpec, DynamicPerturb)
		}
	default:
		return fmt.Errorf("%w: unknown dynamic mode %q (want %q or %q)",
			ErrBadSpec, c.Dynamic, DynamicResample, DynamicPerturb)
	}
	if c.dynamicScenario() && !kind.Dynamics {
		return fmt.Errorf("%w: kind %q does not support dynamic topologies or churn", ErrBadSpec, c.kind())
	}
	// A churn event's time and drop_state are core.CheckScenario's to
	// judge: only the time kind takes churn, and it compiles the cell.
	for _, ev := range c.Churn {
		if ev.Node < 0 {
			return fmt.Errorf("%w: churn node = %d", ErrBadSpec, ev.Node)
		}
		if ev.Op != ChurnOpLeave && ev.Op != ChurnOpJoin {
			return fmt.Errorf("%w: churn op %q (want %q or %q)", ErrBadSpec, ev.Op, ChurnOpLeave, ChurnOpJoin)
		}
	}
	for _, f := range c.CoverageFracs {
		if !(f > 0 && f <= 1) {
			return fmt.Errorf("%w: coverage fraction = %v (want (0, 1])", ErrBadSpec, f)
		}
	}
	if err := checkCoverageNames(c.CoverageFracs); err != nil {
		return err
	}
	for k, v := range c.Params {
		if k == "" {
			return fmt.Errorf("%w: empty param key", ErrBadSpec)
		}
		// The canonical key renders params as "k=v,k=v|...": a separator
		// inside a key would let two distinct specs render (and hash)
		// identically, aliasing cache entries.
		if strings.ContainsAny(k, "=,|") {
			return fmt.Errorf("%w: param key %q contains a reserved separator", ErrBadSpec, k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: param %q = %v", ErrBadSpec, k, v)
		}
	}
	if kind.Validate != nil {
		if err := kind.Validate(c); err != nil {
			return fmt.Errorf("%w: kind %q: %v", ErrBadSpec, c.kind(), err)
		}
	}
	return nil
}

// ParseProtocol maps the wire protocol name to core.Protocol.
func ParseProtocol(name string) (core.Protocol, error) {
	switch {
	case strings.EqualFold(name, "push"):
		return core.Push, nil
	case strings.EqualFold(name, "pull"):
		return core.Pull, nil
	case strings.EqualFold(name, "push-pull"), strings.EqualFold(name, "pushpull"), strings.EqualFold(name, "pp"):
		return core.PushPull, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q (want push, pull, push-pull)", name)
	}
}

// ParseView maps the wire async-view name to core.AsyncView; "" selects
// the (fast) global clock.
func ParseView(name string) (core.AsyncView, error) {
	switch {
	case name == "", strings.EqualFold(name, "global-clock"):
		return core.GlobalClock, nil
	case strings.EqualFold(name, "per-node-clocks"):
		return core.PerNodeClocks, nil
	case strings.EqualFold(name, "per-edge-clocks"):
		return core.PerEdgeClocks, nil
	default:
		return 0, fmt.Errorf("unknown async view %q (want global-clock, per-node-clocks, per-edge-clocks)", name)
	}
}

// ParseVariant maps the wire variant name to core.PPVariant; "" (no
// auxiliary variant) returns 0.
func ParseVariant(name string) (core.PPVariant, error) {
	switch {
	case name == "":
		return 0, nil
	case strings.EqualFold(name, "ppx"):
		return core.PPX, nil
	case strings.EqualFold(name, "ppy"):
		return core.PPY, nil
	default:
		return 0, fmt.Errorf("unknown pp variant %q (want ppx or ppy)", name)
	}
}

// JobSpec is a batch of cells, given either as a grid — the cross
// product of families × sizes × protocols × timings, each cell run for
// Trials trials under a seed derived deterministically from Seed and the
// cell's grid coordinates — or as an explicit cell list (CellList),
// which opens the full v2 scenario space (views, variants, loss,
// crashes, multi-source, custom kinds) to the jobs API. The two forms
// are mutually exclusive.
type JobSpec struct {
	Families  []string `json:"families,omitempty"`
	Sizes     []int    `json:"sizes,omitempty"`
	Protocols []string `json:"protocols,omitempty"`
	Timings   []string `json:"timings,omitempty"`
	Trials    int      `json:"trials,omitempty"`
	Seed      uint64   `json:"seed,omitempty"`
	Source    int      `json:"source,omitempty"`
	// CellList, when non-empty, is the job's explicit cell sequence;
	// the grid axes above must then be empty.
	CellList []CellSpec `json:"cells,omitempty"`
	// Priority orders jobs in the scheduler queue: higher runs first.
	// Jobs of equal priority run in submission order.
	Priority int `json:"priority,omitempty"`
}

// explicit reports whether the job is given as an explicit cell list.
func (s JobSpec) explicit() bool { return len(s.CellList) > 0 }

// Validate checks the grid components (each axis value once, not the
// expanded cross product — a 4096-cell job validates in O(axes)) or, for
// an explicit job, every listed cell; both through CellSpec.Validate.
func (s JobSpec) Validate() error {
	if s.explicit() {
		if len(s.Families) > 0 || len(s.Sizes) > 0 || len(s.Protocols) > 0 || len(s.Timings) > 0 {
			return fmt.Errorf("%w: cells and grid axes are mutually exclusive", ErrBadSpec)
		}
		for i, c := range s.CellList {
			if err := c.Validate(); err != nil {
				return fmt.Errorf("cell %d: %w", i, err)
			}
		}
		return nil
	}
	if len(s.Families) == 0 {
		return fmt.Errorf("%w: no families", ErrBadSpec)
	}
	if len(s.Sizes) == 0 {
		return fmt.Errorf("%w: no sizes", ErrBadSpec)
	}
	if len(s.Protocols) == 0 {
		return fmt.Errorf("%w: no protocols", ErrBadSpec)
	}
	if len(s.Timings) == 0 {
		return fmt.Errorf("%w: no timings", ErrBadSpec)
	}
	// No rule couples two axes of a grid cell, and every family's edge
	// estimate is nondecreasing in n: a cell at the smallest size, and
	// cells that take every family, protocol and timing at the largest,
	// meet every rule the grid's cells can break.
	probe := CellSpec{Family: s.Families[0], N: slices.Min(s.Sizes), Protocol: s.Protocols[0],
		Timing: s.Timings[0], Trials: s.Trials, Source: s.Source}
	if err := probe.Validate(); err != nil {
		return err
	}
	probe.N = slices.Max(s.Sizes)
	for i := range max(len(s.Families), len(s.Protocols), len(s.Timings)) {
		probe.Family = s.Families[min(i, len(s.Families)-1)]
		probe.Protocol = s.Protocols[min(i, len(s.Protocols)-1)]
		probe.Timing = s.Timings[min(i, len(s.Timings)-1)]
		if err := probe.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CellCount returns the number of cells the job expands to, without
// materializing them. ok is false if the product overflows int.
func (s JobSpec) CellCount() (count int, ok bool) {
	if s.explicit() {
		return len(s.CellList), true
	}
	count = 1
	for _, axis := range []int{len(s.Families), len(s.Sizes), len(s.Protocols), len(s.Timings)} {
		if axis == 0 {
			return 0, true
		}
		if count > math.MaxInt/axis {
			return 0, false
		}
		count *= axis
	}
	return count, true
}

// Cells expands the job into cell specs in canonical order: the explicit
// cell list verbatim, or the grid with families outermost, then sizes,
// protocols, timings. The grid's graph seed depends only on the job seed
// and the (family, size) coordinates — so all protocol/timing cells of
// one sweep point share a graph instance — while the trial seed
// additionally mixes in protocol and timing so distinct measurements get
// independent RNG streams. Identical specs reproduce exactly.
func (s JobSpec) Cells() []CellSpec {
	if s.explicit() {
		return append([]CellSpec(nil), s.CellList...)
	}
	cells := make([]CellSpec, 0, len(s.Families)*len(s.Sizes)*len(s.Protocols)*len(s.Timings))
	for fi, fam := range s.Families {
		for si, n := range s.Sizes {
			for pi, proto := range s.Protocols {
				for ti, timing := range s.Timings {
					cells = append(cells, CellSpec{
						Family:    fam,
						N:         n,
						Protocol:  proto,
						Timing:    timing,
						Trials:    s.Trials,
						GraphSeed: mixSeed(s.Seed, uint64(fi), uint64(si)),
						TrialSeed: mixSeed(s.Seed, uint64(fi), uint64(si), uint64(pi), uint64(ti)),
						Source:    s.Source,
					})
				}
			}
		}
	}
	return cells
}

// Hash returns a canonical digest of the job: its expanded cells (in
// canonical order, by their versioned canonical renderings) plus the
// priority. Two specs share a hash iff they enqueue the same work, so
// the hash is the natural idempotency token — the SDK derives its
// Idempotency-Key for StreamCells from it, and the server verifies a
// replayed key against it.
func (s JobSpec) Hash() string {
	if s.explicit() {
		return hashCells(s.Priority, s.CellList) // Cells would copy the list
	}
	return hashCells(s.Priority, s.Cells())
}

// hashCells digests (priority, cells) — see JobSpec.Hash.
func hashCells(priority int, cells []CellSpec) string {
	h := sha256.New()
	b := append([]byte("job|"), CellKeyVersion...)
	b = append(b, "|priority="...)
	b = strconv.AppendInt(b, int64(priority), 10)
	h.Write(b)
	for _, c := range cells {
		b = c.appendCanonical(append(b[:0], '|'))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// mixSeed derives a cell seed from the job seed and grid coordinates
// using splitmix64-style finalization, so neighboring cells do not get
// correlated streams.
func mixSeed(seed uint64, coords ...uint64) uint64 {
	x := seed
	for _, c := range coords {
		x += 0x9e3779b97f4a7c15 + c
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// CellResult is the outcome of one cell. It is a pure function of the
// CellSpec; wall-clock metadata lives in scheduler metrics, not here, so
// cached and freshly computed results are byte-identical on the wire.
type CellResult struct {
	// Index is the cell's position in the job's canonical cell order.
	Index int `json:"index"`
	// Cell is the spec that produced this result.
	Cell CellSpec `json:"cell"`
	// Key is the cell's canonical cache key.
	Key string `json:"key"`
	// Graph is the built instance's descriptive name (e.g.
	// "hypercube(10)"), which carries the family's rounded parameters.
	// Empty for graphless kinds.
	Graph string `json:"graph,omitempty"`
	// N and M are the actual node and edge counts of the built instance
	// (families may round the requested size).
	N int `json:"n"`
	M int `json:"m"`
	// Times are the kind's primary per-trial series, indexed by trial:
	// spreading times for the time kind (rounds for sync, continuous
	// time for async); kind-specific otherwise.
	Times []float64 `json:"times"`
	// Summary holds descriptive statistics of Times.
	Summary stats.Summary `json:"summary"`
	// Coverage maps milestone names ("q50", "q90", "q100", ...) to the
	// mean time to inform that fraction of the nodes across trials, or
	// -1 if some trial never reached it (possible under crash
	// injection).
	Coverage map[string]float64 `json:"coverage,omitempty"`
	// Series holds kind-specific named per-trial series beyond Times
	// (e.g. the coupling kinds' per-trial excess statistics).
	Series map[string][]float64 `json:"series,omitempty"`
	// Values holds kind-specific named scalars (e.g. the rejection
	// sampler's attempt count).
	Values map[string]float64 `json:"values,omitempty"`
}

// JobState is the lifecycle state of a submitted job.
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// terminal reports whether a job in this state will never change again.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobStatus is a point-in-time snapshot of a job, as reported by the
// status endpoint.
type JobStatus struct {
	ID         string   `json:"id"`
	State      JobState `json:"state"`
	Priority   int      `json:"priority"`
	CellsTotal int      `json:"cells_total"`
	CellsDone  int      `json:"cells_done"`
	CacheHits  int      `json:"cache_hits"`
	Error      string   `json:"error,omitempty"`
}
