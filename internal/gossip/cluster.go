package gossip

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rumor/internal/core"
	"rumor/internal/graph"
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
	// DefaultPoll is the async report-sweep interval.
	DefaultPoll = 20 * time.Millisecond
)

// TrialSpec describes one live measurement. Cell carries the shared
// simulator vocabulary — family, n, protocol, timing, loss, seeds,
// source — so the identical spec drives both the cluster and the
// simulator (the overlay depends on this). The remaining fields are
// live-only effects the simulator does not model.
type TrialSpec struct {
	// Cell is the simulator-compatible core of the trial. Used fields:
	// Family, N, GraphSeed (graph construction, via service.BuildGraph),
	// Protocol, Timing, LossProb, TrialSeed (per-node seeds), Source,
	// CoverageFracs.
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
	// Poll is the async report-sweep interval (0 = DefaultPoll).
	Poll time.Duration
}

func (s TrialSpec) timeUnit() time.Duration {
	if s.TimeUnit <= 0 {
		return DefaultTimeUnit
	}
	return s.TimeUnit
}

func (s TrialSpec) maxRounds() int {
	if s.MaxRounds <= 0 {
		return DefaultMaxRounds
	}
	return s.MaxRounds
}

func (s TrialSpec) maxWait() time.Duration {
	if s.MaxWait <= 0 {
		return DefaultMaxWait
	}
	return s.MaxWait
}

func (s TrialSpec) poll() time.Duration {
	if s.Poll <= 0 {
		return DefaultPoll
	}
	return s.Poll
}

func (s TrialSpec) coverageFracs() []float64 {
	if len(s.Cell.CoverageFracs) == 0 {
		return []float64{0.5, 0.9, 1.0}
	}
	return s.Cell.CoverageFracs
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
	// Curve is the full coverage curve, one point per informed node, in
	// acceptance order.
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
	Reports []Report `json:"reports,omitempty"`
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

// Size returns the node count.
func (c *Cluster) Size() int { return len(c.addrs) }

// Addrs returns the node addresses (vertex i at index i).
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// Close closes the coordinator's links and stops self-hosted nodes.
// Attached remote nodes are left running (Shutdown tells them a trial
// ended; their process lifetime is their own).
func (c *Cluster) Close() error {
	c.tr.close()
	for _, n := range c.nodes {
		if n != nil {
			n.Close()
		}
	}
	c.nodes = nil
	return nil
}

// Ping verifies every node answers.
func (c *Cluster) Ping() error {
	return c.sweep(MethodPing, func(i int) (interface{}, error) { return nil, nil }, nil)
}

// Shutdown sends SHUTDOWN to every node (trial teardown; remote hosts
// started with -exit-on-shutdown also exit).
func (c *Cluster) Shutdown() error {
	return c.sweep(MethodShutdown, func(i int) (interface{}, error) { return nil, nil }, nil)
}

// sweep fans one control message out to every node in parallel.
// payload(i) builds node i's payload; decode(i, reply), when non-nil,
// consumes node i's reply. The first error wins.
func (c *Cluster) sweep(method string, payload func(i int) (interface{}, error), decode func(i int, reply *Envelope) error) error {
	errs := make([]error, len(c.addrs))
	var wg sync.WaitGroup
	for i := range c.addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := payload(i)
			if err != nil {
				errs[i] = err
				return
			}
			env, err := NewEnvelope(method, CoordinatorFrom, p)
			if err != nil {
				errs[i] = err
				return
			}
			c.metrics.sent.With(method).Inc()
			reply, err := c.tr.callChecked(c.addrs[i], env, gossipCallTimeout)
			if err != nil {
				errs[i] = fmt.Errorf("node %d (%s): %w", i, c.addrs[i], err)
				return
			}
			if decode != nil {
				errs[i] = decode(i, reply)
			}
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

// RunTrial drives one live measurement: STARTUP every node with its
// vertex's neighbor addresses, DISTRIBUTE the rumor to the source,
// drive rounds (sync) or wait on the exponential clocks (async),
// REPORT-sweep the informed set, and SHUTDOWN. The cluster size must
// match the built graph exactly.
func (c *Cluster) RunTrial(spec TrialSpec) (*TrialResult, error) {
	g, err := service.BuildGraph(spec.Cell)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n != len(c.addrs) {
		return nil, fmt.Errorf("gossip: graph %s has %d nodes, cluster has %d", g.Name(), n, len(c.addrs))
	}
	source := spec.Cell.Source
	if source < 0 || source >= n {
		return nil, fmt.Errorf("gossip: %w: %d (n=%d)", core.ErrBadSource, source, n)
	}

	// Per-node seeds derive from the trial seed through one root
	// stream, so a trial is reproducible end to end.
	root := xrand.New(spec.Cell.TrialSeed)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}

	if err := c.sweep(MethodStartup, func(i int) (interface{}, error) {
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
			TimeUnit:  spec.timeUnit(),
			Latency:   spec.Latency,
		}, nil
	}, nil); err != nil {
		return nil, fmt.Errorf("gossip: startup: %w", err)
	}

	start := time.Now()
	distEnv, err := NewEnvelope(MethodDistribute, CoordinatorFrom, Ack{})
	if err != nil {
		return nil, err
	}
	c.metrics.sent.With(MethodDistribute).Inc()
	if _, err := c.tr.callChecked(c.addrs[source], distEnv, gossipCallTimeout); err != nil {
		return nil, fmt.Errorf("gossip: distribute to node %d: %w", source, err)
	}

	var rounds int
	switch spec.Cell.Timing {
	case service.TimingSync:
		rounds, err = c.driveRounds(spec)
	case service.TimingAsync:
		err = c.waitAsync(spec)
	default:
		err = fmt.Errorf("gossip: unknown timing %q", spec.Cell.Timing)
	}
	if err != nil {
		c.Shutdown() // best effort: do not leak running clocks
		return nil, err
	}

	reports := make([]Report, n)
	if err := c.sweep(MethodReport, func(i int) (interface{}, error) { return nil, nil },
		func(i int, reply *Envelope) error {
			return reply.Decode(&reports[i])
		}); err != nil {
		c.Shutdown()
		return nil, fmt.Errorf("gossip: report: %w", err)
	}
	wall := time.Since(start)
	if err := c.Shutdown(); err != nil {
		return nil, fmt.Errorf("gossip: shutdown: %w", err)
	}

	res := buildResult(spec, g, source, rounds, reports)
	res.Wall = wall
	c.metrics.informed.Set(float64(res.Informed))
	c.metrics.runs.Inc()
	c.metrics.runSeconds.Observe(wall.Seconds())
	return res, nil
}

// driveRounds runs the synchronous schedule: one ROUND fan-out per
// round, a barrier on the acks, stop at full coverage or the cap.
func (c *Cluster) driveRounds(spec TrialSpec) (int, error) {
	n := len(c.addrs)
	maxRounds := spec.maxRounds()
	for r := 1; r <= maxRounds; r++ {
		informed := make([]bool, n)
		err := c.sweep(MethodRound,
			func(i int) (interface{}, error) { return RoundCmd{Round: int32(r)}, nil },
			func(i int, reply *Envelope) error {
				var ack RoundAck
				if err := reply.Decode(&ack); err != nil {
					return err
				}
				informed[i] = ack.Informed
				return nil
			})
		if err != nil {
			return r, fmt.Errorf("gossip: round %d: %w", r, err)
		}
		count := 0
		for _, ok := range informed {
			if ok {
				count++
			}
		}
		c.metrics.informed.Set(float64(count))
		if count == n {
			return r, nil
		}
	}
	return maxRounds, nil
}

// waitAsync polls REPORT sweeps until full coverage or the deadline.
// Coverage timing does not depend on the poll cadence: the curve is
// reconstructed afterwards from the nodes' acceptance timestamps.
func (c *Cluster) waitAsync(spec TrialSpec) error {
	deadline := time.Now().Add(spec.maxWait())
	for {
		var count atomic.Int64 // decode callbacks run concurrently
		err := c.sweep(MethodReport,
			func(i int) (interface{}, error) { return nil, nil },
			func(i int, reply *Envelope) error {
				var rep Report
				if err := reply.Decode(&rep); err != nil {
					return err
				}
				if rep.Informed {
					count.Add(1)
				}
				return nil
			})
		if err != nil {
			return fmt.Errorf("gossip: async poll: %w", err)
		}
		informed := int(count.Load())
		c.metrics.informed.Set(float64(informed))
		if informed == len(c.addrs) {
			return nil
		}
		if time.Now().After(deadline) {
			return nil // partial coverage is a result, not an error
		}
		time.Sleep(spec.poll())
	}
}

// buildResult turns the final reports into coverage curves. Sync times
// come from the exact per-node informed rounds; async times from the
// wall-clock acceptance stamps relative to the source's, in time
// units.
func buildResult(spec TrialSpec, g *graph.Graph, source, rounds int, reports []Report) *TrialResult {
	n := len(reports)
	res := &TrialResult{
		Graph:    g.Name(),
		N:        n,
		M:        g.NumEdges(),
		Rounds:   rounds,
		Coverage: make(map[string]float64),
		Reports:  reports,
	}
	var times []float64
	for _, rep := range reports {
		res.Sent += rep.Sent
		res.Received += rep.Received
		res.Dropped += rep.Dropped
		if !rep.Informed {
			continue
		}
		res.Informed++
		var t float64
		if spec.Cell.Timing == service.TimingSync {
			t = float64(rep.InformedRound)
		} else {
			delta := rep.InformedAtUnixNano - reports[source].InformedAtUnixNano
			t = float64(delta) / float64(spec.timeUnit())
		}
		if t < 0 {
			t = 0
		}
		times = append(times, t)
	}
	sort.Float64s(times)
	for i, t := range times {
		res.Curve = append(res.Curve, CurvePoint{T: t, Frac: float64(i+1) / float64(n)})
	}
	for _, frac := range spec.coverageFracs() {
		name := service.CoverageName(frac)
		k := int(math.Ceil(frac * float64(n)))
		if k < 1 {
			k = 1
		}
		if k <= len(times) {
			res.Coverage[name] = times[k-1]
		} else {
			res.Coverage[name] = -1
		}
	}
	if res.Informed == n && len(times) > 0 {
		res.SpreadTime = times[len(times)-1]
	} else {
		res.SpreadTime = -1
	}
	return res
}
