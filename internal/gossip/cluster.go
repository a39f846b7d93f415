package gossip

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rumor/internal/core"
	"rumor/internal/graph"
	"rumor/internal/harness"
	"rumor/internal/obs"
	"rumor/internal/service"
	"rumor/internal/xrand"
)

// Trial defaults.
const (
	// DefaultTimeUnit is the wall-clock length of one protocol time
	// unit for async trials.
	DefaultTimeUnit = 10 * time.Millisecond
	// DefaultMaxRounds caps a synchronous live trial.
	DefaultMaxRounds = 512
	// DefaultMaxWait caps an asynchronous live trial.
	DefaultMaxWait = 60 * time.Second
	// defaultPoll is the async report-sweep interval.
	defaultPoll = 20 * time.Millisecond
)

// TrialSpec describes one live measurement. Cell carries the shared
// simulator vocabulary — family, n, protocol, timing, loss, seeds,
// source, milestones — so the identical spec drives both the cluster and
// the simulator (the overlay depends on this); a cell with a scenario
// field a cluster cannot host is refused (see LiveRunner). The remaining
// fields are live-only effects the simulator does not model.
type TrialSpec struct {
	// Cell is the simulator-compatible core of the trial.
	Cell service.CellSpec
	// Threshold is the counter-based acceptance rule (0/1 = the paper's
	// immediate acceptance).
	Threshold int
	// TimeUnit scales async clocks (0 = DefaultTimeUnit).
	TimeUnit time.Duration
	// Latency injects per-link message latency.
	Latency LatencySpec
	// MaxRounds caps sync trials (0 = DefaultMaxRounds).
	MaxRounds int
	// MaxWait caps async trials (0 = DefaultMaxWait).
	MaxWait time.Duration

	poll time.Duration // async report-sweep interval (0 = defaultPoll)
}

// orDefault is v, or def where v is unset (zero or negative).
func orDefault[T int | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// CurvePoint is one step of a coverage curve: Frac of the nodes were
// informed by protocol time T (sync rounds or async time units).
type CurvePoint struct {
	T    float64 `json:"t"`
	Frac float64 `json:"frac"`
}

// TrialResult is one live trial's measurement.
type TrialResult struct {
	// Graph is the built instance's name; N and M its real sizes.
	Graph string `json:"graph"`
	N     int    `json:"n"`
	M     int    `json:"m"`
	// Informed is the final informed count.
	Informed int `json:"informed"`
	// Rounds is the number of synchronous rounds driven (0 async). It
	// can exceed SpreadTime by one: a node acks a round when its own
	// contact is done, which may be before a peer's push of that round
	// reaches it, so the coordinator can count it uninformed and drive
	// one more round. SpreadTime comes from the nodes' final reports and
	// is exact.
	Rounds int `json:"rounds"`
	// SpreadTime is the time to full coverage in protocol units (sync
	// rounds, or async time units from the source's acceptance stamp);
	// -1 if the trial ended short of full coverage.
	SpreadTime float64 `json:"spread_time"`
	// Coverage maps milestone names (service.CoverageName) to the time
	// the milestone was reached, -1 if never.
	Coverage map[string]float64 `json:"coverage"`
	// Curve is the full coverage curve, one point per distinct
	// acceptance time, in order.
	Curve []CurvePoint `json:"curve"`
	// Wall is the coordinator-side wall-clock from injection to the
	// final report.
	Wall time.Duration `json:"wall"`
	// Sent, Received, Dropped aggregate the nodes' gossip-plane
	// counters.
	Sent     int64 `json:"sent"`
	Received int64 `json:"received"`
	Dropped  int64 `json:"dropped"`
	// Reports are the per-node final reports, indexed by vertex.
	Reports []Report `json:"-"`

	outcome core.Outcome // the reports as the simulator's result type
}

// Cluster is the coordinator's handle on a set of live nodes — either
// self-hosted in this process (NewSelfHost) or remote gossipd
// processes (Attach). Node i plays graph vertex i.
type Cluster struct {
	metrics *Metrics
	tr      *transport // control-plane calls; one idle link per node
	addrs   []string
	nodes   []*Node // nil when attached to remote processes
}

// NewSelfHost starts n loopback nodes in this process. Close releases
// them.
func NewSelfHost(n int, metrics *Metrics) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gossip: cluster size %d", n)
	}
	metrics = obs.OrZero(metrics)
	c := &Cluster{metrics: metrics, tr: newTransport(n, metrics)}
	for i := 0; i < n; i++ {
		node := NewNode(metrics)
		if err := node.Listen("127.0.0.1:0"); err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		c.addrs = append(c.addrs, node.Addr())
	}
	return c, nil
}

// Attach wraps already-running gossipd nodes. The address list must be
// pre-validated (peers.ParseAddrList); node i plays vertex i.
func Attach(addrs []string, metrics *Metrics) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("gossip: attaching to zero nodes")
	}
	metrics = obs.OrZero(metrics)
	return &Cluster{
		metrics: metrics,
		tr:      newTransport(len(addrs), metrics),
		addrs:   append([]string(nil), addrs...),
	}, nil
}

// Addrs returns the node addresses (vertex i at index i).
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// Close closes the coordinator's links and stops self-hosted nodes.
// Attached remote nodes are left running (Shutdown tells them a trial
// ended; their process lifetime is their own).
func (c *Cluster) Close() error {
	c.tr.close()
	for _, n := range c.nodes {
		n.Close()
	}
	c.nodes = nil
	return nil
}

// Ping verifies every node answers.
func (c *Cluster) Ping() error { return c.sweep(MethodPing, nil, nil) }

// Shutdown sends SHUTDOWN to every node (trial teardown; remote hosts
// started with -exit-on-shutdown also exit).
func (c *Cluster) Shutdown() error { return c.sweep(MethodShutdown, nil, nil) }

// call sends one control message to node i and returns its reply.
func (c *Cluster) call(i int, method string, payload interface{}) (*Envelope, error) {
	env, err := NewEnvelope(method, CoordinatorFrom, payload)
	if err != nil {
		return nil, err
	}
	c.metrics.sent.With(method).Inc()
	reply, err := c.tr.callChecked(c.addrs[i], env, gossipCallTimeout)
	if err != nil {
		return nil, fmt.Errorf("node %d (%s): %w", i, c.addrs[i], err)
	}
	return reply, nil
}

// sweep fans one control message out to every node in parallel.
// payload(i), when non-nil, builds node i's payload; decode(i, reply),
// when non-nil, consumes node i's reply. The first error wins.
func (c *Cluster) sweep(method string, payload func(i int) interface{}, decode func(i int, reply *Envelope) error) error {
	errs := make([]error, len(c.addrs))
	var wg sync.WaitGroup
	for i := range c.addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var p interface{}
			if payload != nil {
				p = payload(i)
			}
			reply, err := c.call(i, method, p)
			if err == nil && decode != nil {
				err = decode(i, reply)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// countInformed sweeps method — ROUND with its command, or a REPORT —
// and counts the nodes whose reply says they hold the rumor.
func (c *Cluster) countInformed(method string, payload interface{}) (int, error) {
	var count atomic.Int64 // decode callbacks run concurrently
	err := c.sweep(method, func(int) interface{} { return payload }, func(i int, reply *Envelope) error {
		var ack RoundAck // a Report's informed field reads the same
		if err := reply.Decode(&ack); err != nil {
			return err
		}
		if ack.Informed {
			count.Add(1)
		}
		return nil
	})
	c.metrics.informed.Set(float64(count.Load()))
	return int(count.Load()), err
}

// host checks that this cluster can run cell and builds its graph.
// Anything else is service.ErrBadSpec before a message is sent: a source
// outside the cluster, an invalid cell, a kind other than time, a
// scenario field the live nodes do not implement — they play one static
// vertex each, crash-free, from a single source, under the global-clock
// view — a graph of another size than the cluster.
func (c *Cluster) host(cell service.CellSpec) (*graph.Graph, error) {
	if n := len(c.addrs); cell.Source < 0 || cell.Source >= n {
		return nil, fmt.Errorf("%w: %w: %d (n=%d)", service.ErrBadSpec, core.ErrBadSource, cell.Source, n)
	}
	if err := cell.Validate(); err != nil {
		return nil, err
	}
	// An allow-list: the cell must be the cell its hosted fields alone
	// spell, so a scenario field added to CellSpec later is refused here
	// until a node implements it. Key makes the defaults (kind, view)
	// explicit before comparing.
	hosted := service.CellSpec{Family: cell.Family, N: cell.N, Protocol: cell.Protocol, Timing: cell.Timing,
		LossProb: cell.LossProb, Trials: cell.Trials, GraphSeed: cell.GraphSeed, TrialSeed: cell.TrialSeed,
		Source: cell.Source, CoverageFracs: cell.CoverageFracs}
	if cell.Key() != hosted.Key() {
		return nil, fmt.Errorf("%w: a live cluster hosts a time cell's family, n, graph_seed, protocol, timing, loss_prob, trials, trial_seed, source and coverage_fracs, and nothing else", service.ErrBadSpec)
	}
	g, err := service.BuildGraph(cell)
	if err != nil {
		return nil, err
	}
	if n := g.NumNodes(); n != len(c.addrs) {
		return nil, fmt.Errorf("%w: graph %s has %d nodes, cluster has %d", service.ErrBadSpec, g.Name(), n, len(c.addrs))
	}
	return g, nil
}

// RunTrial is one live trial of spec.Cell outside any context, with the
// nodes seeded from the cell's trial seed itself.
func (c *Cluster) RunTrial(spec TrialSpec) (*TrialResult, error) {
	g, err := c.host(spec.Cell)
	if err != nil {
		return nil, err
	}
	return c.runTrial(context.Background(), spec, g, xrand.New(spec.Cell.TrialSeed))
}

// runTrial drives one live measurement: STARTUP every node with its
// vertex's neighbor addresses, DISTRIBUTE the rumor to the source,
// drive rounds (sync) or wait on the exponential clocks (async),
// REPORT-sweep the informed set, and SHUTDOWN. Per-node seeds are drawn
// from rng, so a trial is reproducible end to end. ctx is honoured
// between rounds and polls; on that and every other failure the nodes
// still get their SHUTDOWN, so none is left with a running clock.
func (c *Cluster) runTrial(ctx context.Context, spec TrialSpec, g *graph.Graph, rng *xrand.RNG) (res *TrialResult, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			c.Shutdown() // best effort
		}
	}()
	seeds := make([]uint64, len(c.addrs))
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	if err := c.sweep(MethodStartup, func(i int) interface{} {
		nbrs := g.Neighbors(graph.NodeID(i))
		addrs := make([]string, len(nbrs))
		for j, v := range nbrs {
			addrs[j] = c.addrs[v]
		}
		return StartupConfig{
			Node:      i,
			Neighbors: addrs,
			Protocol:  spec.Cell.Protocol,
			Timing:    spec.Cell.Timing,
			LossProb:  spec.Cell.LossProb,
			Threshold: spec.Threshold,
			Seed:      seeds[i],
			TimeUnit:  orDefault(spec.TimeUnit, DefaultTimeUnit),
			Latency:   spec.Latency,
		}
	}, nil); err != nil {
		return nil, fmt.Errorf("gossip: startup: %w", err)
	}

	start := time.Now()
	if _, err := c.call(spec.Cell.Source, MethodDistribute, Ack{}); err != nil {
		return nil, fmt.Errorf("gossip: distribute: %w", err)
	}

	var rounds int
	if spec.Cell.Timing == service.TimingSync {
		rounds, err = c.driveRounds(ctx, spec)
	} else {
		err = c.waitAsync(ctx, spec)
	}
	if err != nil {
		return nil, err
	}

	reports := make([]Report, len(c.addrs))
	if err := c.sweep(MethodReport, nil, func(i int, reply *Envelope) error {
		return reply.Decode(&reports[i])
	}); err != nil {
		return nil, fmt.Errorf("gossip: report: %w", err)
	}
	wall := time.Since(start)
	if err := c.Shutdown(); err != nil {
		return nil, fmt.Errorf("gossip: shutdown: %w", err)
	}

	res = buildResult(spec, g, rounds, reports)
	res.Wall = wall
	c.metrics.informed.Set(float64(res.Informed))
	c.metrics.runs.Inc()
	c.metrics.runSeconds.Observe(wall.Seconds())
	return res, nil
}

// driveRounds runs the synchronous schedule: one ROUND fan-out per
// round, a barrier on the acks, stop at full coverage or the cap.
func (c *Cluster) driveRounds(ctx context.Context, spec TrialSpec) (int, error) {
	maxRounds := orDefault(spec.MaxRounds, DefaultMaxRounds)
	for r := 1; r <= maxRounds; r++ {
		if err := ctx.Err(); err != nil {
			return r, err
		}
		informed, err := c.countInformed(MethodRound, RoundCmd{Round: int32(r)})
		if err != nil {
			return r, fmt.Errorf("gossip: round %d: %w", r, err)
		}
		if informed == len(c.addrs) {
			return r, nil
		}
	}
	return maxRounds, nil
}

// waitAsync polls REPORT sweeps until full coverage, the deadline or the
// end of ctx. Coverage timing does not depend on the poll cadence: the
// curve is reconstructed afterwards from the nodes' acceptance
// timestamps.
func (c *Cluster) waitAsync(ctx context.Context, spec TrialSpec) error {
	deadline := time.Now().Add(orDefault(spec.MaxWait, DefaultMaxWait))
	for {
		informed, err := c.countInformed(MethodReport, nil)
		if err != nil {
			return fmt.Errorf("gossip: async poll: %w", err)
		}
		if informed == len(c.addrs) || time.Now().After(deadline) {
			return nil // partial coverage is a result, not an error
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(orDefault(spec.poll, defaultPoll)):
		}
	}
}

// buildResult measures a trial from its final reports with the
// simulator's own code: the informing times — exact per-node informed
// rounds for sync trials, wall-clock acceptance stamps relative to the
// source's in time units for async ones, -1 for a node never informed —
// fill the engine's result type, and milestones, spread time and curve
// are what core reads off it.
func buildResult(spec TrialSpec, g *graph.Graph, rounds int, reports []Report) *TrialResult {
	n := len(reports)
	res := &TrialResult{
		Graph:      g.Name(),
		N:          n,
		M:          g.NumEdges(),
		Rounds:     rounds,
		SpreadTime: -1,
		Reports:    reports,
	}
	sync := spec.Cell.Timing == service.TimingSync
	at := make([]float64, n)
	for i, rep := range reports {
		res.Sent += rep.Sent
		res.Received += rep.Received
		res.Dropped += rep.Dropped
		switch {
		case !rep.Informed:
			at[i] = -1
			continue
		case sync:
			at[i] = float64(rep.InformedRound)
		default:
			delta := rep.InformedAtUnixNano - reports[spec.Cell.Source].InformedAtUnixNano
			at[i] = float64(delta) / float64(orDefault(spec.TimeUnit, DefaultTimeUnit))
		}
		at[i] = max(at[i], 0)
		res.Informed++
	}
	var curve *core.Curve
	if sync {
		r := &core.SyncResult{Rounds: int(slices.Max(at)), InformedAt: make([]int32, n), NumInformed: res.Informed, Complete: res.Informed == n}
		for i, t := range at {
			r.InformedAt[i] = int32(t)
		}
		res.outcome, curve = core.Outcome{Sync: r}, r.Curve()
	} else {
		r := &core.AsyncResult{Time: slices.Max(at), InformedAt: at, NumInformed: res.Informed, Complete: res.Informed == n}
		res.outcome, curve = core.Outcome{Async: r}, r.Curve()
	}
	for i, t := range curve.Times {
		res.Curve = append(res.Curve, CurvePoint{T: t, Frac: curve.Fractions[i]})
	}
	if t, err := res.outcome.SpreadingTime(); err == nil {
		res.SpreadTime = t
	}
	one := spec.Cell // the trial's own milestones are a one-trial cell's
	one.Trials = 1
	fold := service.NewTimeFold(one)
	fold.Add(0, res.outcome)
	res.Coverage = fold.Result(nil).Coverage
	return res
}

// LiveRunner is a cluster in service.CellRunner form, the sixth door to
// the execution spine: a time cell's trials run on real nodes and come
// back as the CellResult the simulator would build. Spec holds the
// live-only knobs every trial runs under; its Cell is ignored, each cell
// run takes its place.
type LiveRunner struct {
	Cluster *Cluster
	Spec    TrialSpec
}

// seriesInformed is the per-trial series of a live CellResult that tells
// a complete trial (N) from one that ended short; "rounds" (sync rounds
// driven), "wall_s" (injection to final report), "sent", "received" and
// "dropped" ride beside it.
const seriesInformed = "informed"

// StreamCells implements service.CellRunner: it runs each cell's Trials
// live trials, one cell after another (a cluster plays one trial at a
// time), and hands fn each cell as its trials end. Nothing is cached; a
// live result is not a function of its spec. A cell the cluster cannot
// host fails the batch with service.ErrBadSpec.
func (r LiveRunner) StreamCells(ctx context.Context, cells []service.CellSpec, fn func(*service.CellResult) error) ([]*service.CellResult, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("gossip: %w: no cells", service.ErrBadSpec)
	}
	results := make([]*service.CellResult, len(cells))
	for i, cell := range cells {
		res, _, err := r.RunTrials(ctx, cell)
		if err != nil {
			return nil, fmt.Errorf("gossip: cell %d: %w", i, err)
		}
		res.Index = i
		results[i] = res
		if fn != nil {
			if err := fn(res); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}

// RunTrials is StreamCells for one cell, with each trial's own result beside
// the cell's. Trial t's nodes are seeded from the stream harness.Runner
// gives trial t of a simulated cell with the same trial seed. A cancelled
// ctx ends the trial in flight between two rounds or polls, SHUTDOWN
// sweep included, and returns ctx's error.
func (r LiveRunner) RunTrials(ctx context.Context, cell service.CellSpec) (*service.CellResult, []*TrialResult, error) {
	g, err := r.Cluster.host(cell)
	if err != nil {
		return nil, nil, err
	}
	spec := r.Spec
	spec.Cell = cell
	trials := make([]*TrialResult, cell.Trials)
	if _, err := (harness.Runner{Trials: cell.Trials, Seed: cell.TrialSeed, Workers: 1}).Run(func(t int, rng *xrand.RNG) (float64, error) {
		tr, err := r.Cluster.runTrial(ctx, spec, g, rng)
		trials[t] = tr
		return 0, err
	}); err != nil {
		return nil, nil, err
	}
	return cellResult(cell, g, trials), trials, nil
}

// cellResult folds a cell's live trials the way the time kind folds
// simulated ones — a milestone some trial fell short of is -1 — and wraps
// them as the executor would. Times holds each trial's last informing
// time, complete or not; seriesInformed tells which.
func cellResult(cell service.CellSpec, g *graph.Graph, trials []*TrialResult) *service.CellResult {
	fold := service.NewTimeFold(cell)
	times := make([]float64, len(trials))
	series := make(map[string][]float64)
	for t, tr := range trials {
		fold.Add(t, tr.outcome)
		times[t] = tr.outcome.Time()
		for name, v := range map[string]float64{
			seriesInformed: float64(tr.Informed), "rounds": float64(tr.Rounds), "wall_s": tr.Wall.Seconds(),
			"sent": float64(tr.Sent), "received": float64(tr.Received), "dropped": float64(tr.Dropped),
		} {
			series[name] = append(series[name], v)
		}
	}
	kr := fold.Result(times)
	kr.Series = series
	return service.NewCellResult(cell, cell.Key(), g, kr)
}
