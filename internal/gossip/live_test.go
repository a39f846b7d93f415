package gossip

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rumor/internal/core"
	"rumor/internal/graph"
	"rumor/internal/obs"
	"rumor/internal/service"
	"rumor/internal/xrand"
)

var _ service.CellRunner = LiveRunner{}

// liveTestKind is a registered graphless kind: a valid cell, and not one a
// cluster can run.
const liveTestKind = "gossip-live-test"

func init() {
	service.MustRegisterKind(service.CellKind{Name: liveTestKind,
		Run: func(context.Context, service.CellSpec, *graph.Graph, int) (*service.KindResult, error) {
			return &service.KindResult{}, nil
		}})
}

// TestLiveRunnerRefusesUnhostableCells: a cluster runs static, crash-free,
// single-source time cells under the global-clock view and nothing else.
// Every scenario field it cannot host is service.ErrBadSpec before any
// message is sent — from the runner and from RunTrial, which used to run
// the plain process and drop the field. Attach opens no socket.
func TestLiveRunnerRefusesUnhostableCells(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := Attach([]string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4"}, NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := func(timing string) service.CellSpec {
		return service.CellSpec{Family: "complete", N: 4, Protocol: "push-pull", Timing: timing, Trials: 1, GraphSeed: 1, TrialSeed: 2}
	}
	for _, tc := range []struct {
		name string
		cell func() service.CellSpec
	}{
		{"kind", func() service.CellSpec {
			return service.CellSpec{Kind: liveTestKind, Trials: 1}
		}},
		{"crashes", func() service.CellSpec {
			c := base(service.TimingSync)
			c.Crashes = []service.CrashSpec{{Node: 1, Time: 2}}
			return c
		}},
		{"churn", func() service.CellSpec {
			c := base(service.TimingSync)
			c.Churn = []service.ChurnSpec{{Node: 1, Time: 2, Op: service.ChurnOpLeave}}
			return c
		}},
		{"dynamic", func() service.CellSpec {
			c := base(service.TimingAsync)
			c.Dynamic = service.DynamicResample
			return c
		}},
		{"variant", func() service.CellSpec {
			c := base(service.TimingSync)
			c.Variant = "ppx"
			return c
		}},
		{"quasirandom", func() service.CellSpec {
			c := base(service.TimingSync)
			c.Quasirandom = true
			return c
		}},
		{"extra_sources", func() service.CellSpec {
			c := base(service.TimingSync)
			c.ExtraSources = []int{2}
			return c
		}},
		{"view per-node-clocks", func() service.CellSpec {
			c := base(service.TimingAsync)
			c.View = core.PerNodeClocks.String()
			return c
		}},
		{"view per-edge-clocks", func() service.CellSpec {
			c := base(service.TimingAsync)
			c.View = core.PerEdgeClocks.String()
			return c
		}},
		{"trials", func() service.CellSpec {
			c := base(service.TimingSync)
			c.Trials = 0
			return c
		}},
		{"timing", func() service.CellSpec { return base("warped") }},
		{"cluster size", func() service.CellSpec {
			c := base(service.TimingSync)
			c.N = 8
			return c
		}},
	} {
		cell := tc.cell()
		if _, err := (LiveRunner{Cluster: c}).StreamCells(context.Background(), []service.CellSpec{cell}, nil); !errors.Is(err, service.ErrBadSpec) {
			t.Errorf("%s: StreamCells err = %v, want service.ErrBadSpec", tc.name, err)
		}
		if _, err := c.RunTrial(TrialSpec{Cell: cell}); !errors.Is(err, service.ErrBadSpec) {
			t.Errorf("%s: RunTrial err = %v, want service.ErrBadSpec", tc.name, err)
		}
	}
	// The default view by its name is the default view.
	cell := base(service.TimingAsync)
	cell.View = core.GlobalClock.String()
	if _, err := c.host(cell); err != nil {
		t.Errorf("explicit global-clock view refused: %v", err)
	}
	if got := metricValue(t, reg, "rumor_gossip_messages_sent_total"); got != 0 {
		t.Fatalf("%v messages sent for cells that must fail before STARTUP", got)
	}
}

// TestSyntheticReportsMatchOutcome: a live trial is measured by the
// simulator's code. Random informed sets with never-informed nodes —
// rounds for sync trials, wall-clock stamps for async ones, some before
// the source's — go in as node reports; what comes out must equal
// core.Outcome on a result filled in here from the same data.
func TestSyntheticReportsMatchOutcome(t *testing.T) {
	const unit = 3 * time.Millisecond
	fracs := []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1}
	rng := xrand.New(23)
	for _, n := range []int{1, 2, 16, 257} {
		g, err := graph.Complete(n)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 40; rep++ {
			for _, timing := range []string{service.TimingSync, service.TimingAsync} {
				source := rng.Intn(n)
				base := int64(1_700_000_000_000_000_000) + int64(rng.Intn(1_000_000))
				reports := make([]Report, n)
				sync := &core.SyncResult{InformedAt: make([]int32, n)}
				async := &core.AsyncResult{InformedAt: make([]float64, n)}
				keep := rng.Float64() // the share of nodes informed; every fourth repeat, all
				if rep%4 == 0 {
					keep = 1
				}
				for i := range reports {
					reports[i] = Report{Node: i, InformedRound: -1, Sent: int64(i), Received: 1, Dropped: 2}
					sync.InformedAt[i], async.InformedAt[i] = -1, -1
					if i != source && rng.Float64() >= keep {
						continue
					}
					round, stamp := int32(rng.Intn(12)), base+int64(rng.Intn(50_000_000))-5_000_000
					if i == source {
						round, stamp = 0, base
					}
					reports[i].Informed = true
					reports[i].InformedRound = round
					reports[i].InformedAtUnixNano = stamp
					sync.InformedAt[i] = round
					sync.Rounds = max(sync.Rounds, int(round))
					sync.NumInformed++
					async.InformedAt[i] = max(float64(stamp-base)/float64(unit), 0)
					async.Time = max(async.Time, async.InformedAt[i])
					async.NumInformed++
				}
				sync.Complete, async.Complete = sync.NumInformed == n, async.NumInformed == n
				want := core.Outcome{Sync: sync}
				if timing == service.TimingAsync {
					want = core.Outcome{Async: async}
				}

				spec := TrialSpec{TimeUnit: unit, Cell: service.CellSpec{Family: "complete", N: n, Protocol: "push-pull",
					Timing: timing, Trials: 1, Source: source, CoverageFracs: fracs}}
				got := buildResult(spec, g, 7, reports)
				label := fmt.Sprintf("n=%d rep=%d %s informed=%d", n, rep, timing, sync.NumInformed)
				wantSpread, err := want.SpreadingTime()
				if err != nil {
					wantSpread = -1
				}
				if got.SpreadTime != wantSpread {
					t.Fatalf("%s: spread = %v, want %v", label, got.SpreadTime, wantSpread)
				}
				wantCov := map[string]float64{}
				for i, v := range want.Coverage(fracs) {
					wantCov[service.CoverageName(fracs[i])] = v
				}
				if !reflect.DeepEqual(got.Coverage, wantCov) {
					t.Fatalf("%s: coverage = %v, want %v", label, got.Coverage, wantCov)
				}
				if got.Informed != sync.NumInformed || got.N != n || got.M != g.NumEdges() || got.Rounds != 7 ||
					got.Sent != int64(n*(n-1)/2) || got.Received != int64(n) || got.Dropped != int64(2*n) {
					t.Fatalf("%s: result = %+v", label, got)
				}
				if last := got.Curve[len(got.Curve)-1]; last.T != want.Time() || last.Frac != float64(sync.NumInformed)/float64(n) {
					t.Fatalf("%s: curve ends at %+v, want (%v, %d/%d)", label, last, want.Time(), sync.NumInformed, n)
				}
				// The cell-level fold of this one trial reads the same.
				cell := cellResult(spec.Cell, g, []*TrialResult{got})
				if !reflect.DeepEqual(cell.Coverage, wantCov) || cell.Times[0] != want.Time() ||
					cell.Series[seriesInformed][0] != float64(sync.NumInformed) || cell.Key != spec.Cell.Key() || cell.N != n {
					t.Fatalf("%s: cell result = %+v", label, cell)
				}
			}
		}
	}
}

// TestLiveTrialCancel: a cancelled context ends a live trial between two
// polls, well inside MaxWait, with the SHUTDOWN sweep done — no node is
// left with a running clock — and the process back at its goroutine and
// descriptor baselines once the cluster is closed.
func TestLiveTrialCancel(t *testing.T) {
	startNode(t, "127.0.0.1:0", nil).Close() // see TestRepeatedLifecycleNoLeaks
	baseline, baselineFDs := runtime.NumGoroutine(), openFDs()
	const n = 8
	reg := obs.NewRegistry()
	c, err := NewSelfHost(n, NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	// Clocks that tick once a minute: the trial cannot finish by itself.
	spec := testSpec("cycle", n, "push-pull", service.TimingAsync)
	spec.TimeUnit = time.Minute
	spec.Cell.Trials = 3
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	_, err = LiveRunner{Cluster: c, Spec: spec}.StreamCells(ctx, []service.CellSpec{spec.Cell}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancelled trial returned after %v (MaxWait is %v)", took, spec.MaxWait)
	}
	scrape, err := obs.ParseText(strings.NewReader(scrapeText(t, reg)))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := scrape.Value("rumor_gossip_messages_received_total", map[string]string{"method": MethodShutdown}); got != n {
		t.Fatalf("%v SHUTDOWN messages received by %d nodes", got, n)
	}
	if got, _ := scrape.Value("rumor_gossip_messages_received_total", map[string]string{"method": MethodStartup}); got != n {
		t.Fatalf("%v STARTUP messages: a trial started after the cancellation", got)
	}
	for i, node := range c.nodes {
		node.mu.Lock()
		active, clock := node.active, node.clockStop
		node.mu.Unlock()
		if active || clock != nil {
			t.Fatalf("node %d still active after the cancelled trial", i)
		}
	}
	// The cluster is still usable: the next trial runs to the end.
	spec.TimeUnit = 2 * time.Millisecond
	spec.Cell.Trials = 1
	if res, err := c.RunTrial(spec); err != nil || res.Informed != n {
		t.Fatalf("trial after a cancelled one: %+v, %v", res, err)
	}
	c.Close()
	waitForBaseline(t, baseline, baselineFDs)
}
