package gossip

import (
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rumor/internal/core"
	"rumor/internal/obs"
	"rumor/internal/service"
)

func testSpec(family string, n int, protocol, timing string) TrialSpec {
	return TrialSpec{
		Cell: service.CellSpec{
			Family:    family,
			N:         n,
			Protocol:  protocol,
			Timing:    timing,
			Trials:    1,
			GraphSeed: 7,
			TrialSeed: 11,
		},
		TimeUnit: 2 * time.Millisecond,
		poll:     5 * time.Millisecond,
		MaxWait:  30 * time.Second,
	}
}

func runLive(t *testing.T, spec TrialSpec, metrics *Metrics) *TrialResult {
	t.Helper()
	g, err := service.BuildGraph(spec.Cell)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewSelfHost(g.NumNodes(), metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkFullCoverage(t *testing.T, res *TrialResult) {
	t.Helper()
	if res.Informed != res.N {
		t.Fatalf("informed %d of %d nodes", res.Informed, res.N)
	}
	if res.SpreadTime < 0 {
		t.Fatalf("spread time %v despite full coverage", res.SpreadTime)
	}
	q100 := res.Coverage[service.CoverageName(1.0)]
	if q100 != res.SpreadTime {
		t.Fatalf("q100 %v != spread time %v", q100, res.SpreadTime)
	}
	last := -1.0
	for _, p := range res.Curve {
		if p.T < last {
			t.Fatalf("coverage curve not monotone: %v", res.Curve)
		}
		last = p.T
	}
	if end := res.Curve[len(res.Curve)-1]; end.Frac != 1 || end.T != res.SpreadTime {
		t.Fatalf("curve ends at %+v, spread time %v", end, res.SpreadTime)
	}
}

func TestSyncPushPullComplete(t *testing.T) {
	res := runLive(t, testSpec("complete", 16, "push-pull", service.TimingSync), nil)
	checkFullCoverage(t, res)
	if res.Rounds < 1 || res.SpreadTime < 1 {
		t.Fatalf("rounds = %d, spread = %v", res.Rounds, res.SpreadTime)
	}
	if res.Sent == 0 || res.Received == 0 {
		t.Fatalf("no traffic counted: sent=%d received=%d", res.Sent, res.Received)
	}
}

func TestSyncPushCycle(t *testing.T) {
	res := runLive(t, testSpec("cycle", 8, "push", service.TimingSync), nil)
	checkFullCoverage(t, res)
	// A cycle's push time is at least ~n/2 rounds (the rumor walks).
	if res.SpreadTime < 3 {
		t.Fatalf("cycle push spread time %v is implausibly small", res.SpreadTime)
	}
}

func TestSyncPullComplete(t *testing.T) {
	res := runLive(t, testSpec("complete", 8, "pull", service.TimingSync), nil)
	checkFullCoverage(t, res)
}

func TestAsyncPushPullComplete(t *testing.T) {
	spec := testSpec("complete", 8, "push-pull", service.TimingAsync)
	reg := obs.NewRegistry()
	metrics := NewMetrics(reg)
	res := runLive(t, spec, metrics)
	checkFullCoverage(t, res)
	if res.Rounds != 0 {
		t.Fatalf("async trial reports %d sync rounds", res.Rounds)
	}
	// Async times are wall-clock stamps in time units; with 8 nodes
	// they should be positive and bounded by the wait cap.
	if res.SpreadTime <= 0 {
		t.Fatalf("async spread time %v", res.SpreadTime)
	}
}

func TestSyncWithLossStillCompletes(t *testing.T) {
	spec := testSpec("complete", 8, "push-pull", service.TimingSync)
	spec.Cell.LossProb = 0.3
	res := runLive(t, spec, nil)
	checkFullCoverage(t, res)
}

func TestThresholdAcceptance(t *testing.T) {
	spec := testSpec("complete", 8, "push-pull", service.TimingSync)
	spec.Threshold = 2
	res := runLive(t, spec, nil)
	checkFullCoverage(t, res)
	for i, rep := range res.Reports {
		if i == spec.Cell.Source {
			continue
		}
		if rep.Hearings < 2 {
			t.Fatalf("node %d informed after %d hearings, threshold 2", i, rep.Hearings)
		}
	}
}

func TestLatencySlowsSyncRounds(t *testing.T) {
	spec := testSpec("complete", 4, "push-pull", service.TimingSync)
	spec.Latency = LatencySpec{Dist: LatencyFixed, Mean: 20 * time.Millisecond}
	start := time.Now()
	res := runLive(t, spec, nil)
	checkFullCoverage(t, res)
	// Each round with an informed pusher sleeps >= 20ms on the wire.
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("trial with fixed 20ms latency finished in %v", elapsed)
	}
}

// TestProtocolSpellingSharedWithValidation: validation and dispatch use
// one parsed protocol, so every spelling service.ParseProtocol accepts
// runs the same exchange. (With validation parsing and contact comparing
// strings, "PP" would pass STARTUP and then neither push nor pull.)
func TestProtocolSpellingSharedWithValidation(t *testing.T) {
	want := runLive(t, testSpec("complete", 16, "push-pull", service.TimingSync), nil)
	checkFullCoverage(t, want)
	for _, spelling := range []string{"PP", "pushpull"} {
		got := runLive(t, testSpec("complete", 16, spelling, service.TimingSync), nil)
		// Not Rounds: rounds driven may overshoot SpreadTime by one
		// from run to run (see TrialResult.Rounds).
		if got.SpreadTime != want.SpreadTime || got.Informed != want.Informed ||
			!reflect.DeepEqual(got.Curve, want.Curve) {
			t.Errorf("protocol %q: spread=%v informed=%d curve=%v, want spread=%v informed=%d curve=%v (push-pull)",
				spelling, got.SpreadTime, got.Informed, got.Curve, want.SpreadTime, want.Informed, want.Curve)
		}
	}
}

// callOnce is a one-shot Call whose reply must pass checkReply.
func callOnce(addr string, env *Envelope) (*Envelope, error) {
	reply, err := Call(addr, env, time.Second, nil)
	if err != nil {
		return nil, err
	}
	return checkReply(addr, env, reply)
}

func TestStartupValidation(t *testing.T) {
	node := NewNode(nil)
	if err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	bad := []StartupConfig{
		{Protocol: "carrier-pigeon", Timing: service.TimingSync},
		{Protocol: "push", Timing: "warped"},
		{Protocol: "push", Timing: service.TimingAsync}, // no time unit
		{Protocol: "push", Timing: service.TimingSync, LossProb: 1.0},
		{Protocol: "push", Timing: service.TimingSync, LossProb: -0.1},
		{Protocol: "push", Timing: service.TimingSync, Threshold: -1},
		{Protocol: "push", Timing: service.TimingSync, Latency: LatencySpec{Dist: "warp", Mean: time.Millisecond}},
	}
	for _, cfg := range bad {
		env, err := NewEnvelope(MethodStartup, CoordinatorFrom, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := callOnce(node.Addr(), env); err == nil {
			t.Errorf("startup %+v accepted", cfg)
		}
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	node := NewNode(nil)
	if err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	env := &Envelope{Method: "teleport", From: CoordinatorFrom}
	_, err := callOnce(node.Addr(), env)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v, want unknown method rejection", err)
	}
}

func TestControlBeforeStartupRejected(t *testing.T) {
	node := NewNode(nil)
	if err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	dist, _ := NewEnvelope(MethodDistribute, CoordinatorFrom, Ack{})
	if _, err := callOnce(node.Addr(), dist); err == nil {
		t.Error("distribute before startup accepted")
	}
	round, _ := NewEnvelope(MethodRound, CoordinatorFrom, RoundCmd{Round: 1})
	if _, err := callOnce(node.Addr(), round); err == nil {
		t.Error("round before startup accepted")
	}
}

func TestClusterSizeMismatch(t *testing.T) {
	c, err := NewSelfHost(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := testSpec("complete", 8, "push", service.TimingSync)
	if _, err := c.RunTrial(spec); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestAttachRunsTrial(t *testing.T) {
	// Stand nodes up by hand and attach by address, the remote-process
	// path gossipd -coordinator -peers uses.
	const n = 4
	var addrs []string
	for i := 0; i < n; i++ {
		node := NewNode(nil)
		if err := node.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		addrs = append(addrs, node.Addr())
	}
	c, err := Attach(addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	res, err := c.RunTrial(testSpec("complete", n, "push-pull", service.TimingSync))
	if err != nil {
		t.Fatal(err)
	}
	checkFullCoverage(t, res)
}

// openFDs counts the process's open file descriptors, -1 where /proc
// does not list them.
func openFDs() int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(entries)
}

// TestRepeatedLifecycleNoLeaks drives several full
// STARTUP→DISTRIBUTE→…→SHUTDOWN cycles (sync and async) on one
// cluster and verifies the process returns to its goroutine and open
// file descriptor baselines — the acceptance criterion for clean
// shutdown under the race detector, idle links included.
func TestRepeatedLifecycleNoLeaks(t *testing.T) {
	// A first socket makes the runtime open its poller's descriptors,
	// which stay; keep them out of the baseline's way.
	startNode(t, "127.0.0.1:0", nil).Close()
	baseline, baselineFDs := runtime.NumGoroutine(), openFDs()
	const n = 16
	c, err := NewSelfHost(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		for _, timing := range []string{service.TimingSync, service.TimingAsync} {
			spec := testSpec("complete", n, "push-pull", timing)
			spec.Cell.TrialSeed = uint64(100*cycle + len(timing))
			res, err := c.RunTrial(spec)
			if err != nil {
				t.Fatalf("cycle %d %s: %v", cycle, timing, err)
			}
			checkFullCoverage(t, res)
		}
	}
	if held := openFDs(); baselineFDs >= 0 && held < baselineFDs+n {
		t.Fatalf("%d descriptors open with a %d-node cluster up, baseline %d: the count sees no sockets", held, n, baselineFDs)
	}
	c.Close()
	waitForBaseline(t, baseline, baselineFDs)
}

// waitForBaseline gives the process five seconds to get back to the
// goroutine and open-descriptor counts taken before a cluster came up.
func waitForBaseline(t *testing.T, baseline, baselineFDs int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now, fds := runtime.NumGoroutine(), openFDs()
		if now <= baseline+2 && fds <= baselineFDs {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: baseline %d, now %d; open descriptors: baseline %d, now %d\n%s",
				baseline, now, baselineFDs, fds, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSyncCurveDeterministic: a synchronous round acts on start-of-round
// state, so without loss or latency the per-node informed rounds are a
// function of (graph, seed), whatever order a round's messages land in —
// and the rumor moves one hop per round at most.
func TestSyncCurveDeterministic(t *testing.T) {
	for _, tc := range []struct {
		family    string
		minSpread float64
	}{{"hypercube", 4}, {"complete", 1}} {
		c, err := NewSelfHost(16, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var first []int32
		for rep := 0; rep < 5; rep++ {
			res, err := c.RunTrial(testSpec(tc.family, 16, "push-pull", service.TimingSync))
			if err != nil {
				t.Fatal(err)
			}
			checkFullCoverage(t, res)
			if res.SpreadTime < tc.minSpread {
				t.Fatalf("%s: spread time %v below the diameter %v", tc.family, res.SpreadTime, tc.minSpread)
			}
			if d := float64(res.Rounds) - res.SpreadTime; d != 0 && d != 1 {
				t.Fatalf("%s: drove %d rounds for a spread time of %v", tc.family, res.Rounds, res.SpreadTime)
			}
			rounds := make([]int32, len(res.Reports))
			for i, r := range res.Reports {
				rounds[i] = r.InformedRound
			}
			if first == nil {
				first = rounds
			} else if !reflect.DeepEqual(rounds, first) {
				t.Fatalf("%s: repeat %d informed rounds %v, first run %v", tc.family, rep, rounds, first)
			}
		}
	}
}

func TestRunTrialRejectsBadSource(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewSelfHost(4, NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, source := range []int{-1, 4, 99} {
		spec := testSpec("complete", 4, "push", service.TimingSync)
		spec.Cell.Source = source
		if _, err := c.RunTrial(spec); !errors.Is(err, core.ErrBadSource) {
			t.Errorf("source %d: err = %v, want core.ErrBadSource", source, err)
		}
	}
	if got := metricValue(t, reg, "rumor_gossip_messages_sent_total"); got != 0 {
		t.Fatalf("%v messages sent for trials that must fail before STARTUP", got)
	}
}

func TestMetricsAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	metrics := NewMetrics(reg)
	res := runLive(t, testSpec("complete", 8, "push-pull", service.TimingSync), metrics)
	checkFullCoverage(t, res)
	scrape, err := obs.ParseText(strings.NewReader(scrapeText(t, reg)))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := scrape.Sum("rumor_gossip_live_runs_total"); got != 1 {
		t.Fatalf("live runs = %v", got)
	}
	if got, _ := scrape.Sum("rumor_gossip_contacts_total"); got <= 0 {
		t.Fatalf("contacts = %v", got)
	}
	if got, _ := scrape.Sum("rumor_gossip_messages_sent_total"); got <= 0 {
		t.Fatalf("sent = %v", got)
	}
	if got, _ := scrape.Sum("rumor_gossip_frame_bytes_total"); got <= 0 {
		t.Fatalf("frame bytes = %v", got)
	}
	if got, _ := scrape.Sum("rumor_gossip_nodes"); got != 0 {
		t.Fatalf("nodes gauge = %v after Close", got)
	}
	// Each of the 8 nodes needs at most one link per neighbor, the
	// coordinator one per node; everything beyond that is reuse.
	dials, _ := scrape.Sum("rumor_gossip_dials_total")
	reuses, _ := scrape.Sum("rumor_gossip_conn_reuses_total")
	if dials <= 0 || dials > 8*7+8 || reuses <= 0 {
		t.Fatalf("dials = %v (want 1..64), reuses = %v (want > 0)", dials, reuses)
	}
	sent, _ := scrape.Sum("rumor_gossip_messages_sent_total")
	if dials+reuses != sent {
		t.Fatalf("dials %v + reuses %v != messages sent %v", dials, reuses, sent)
	}
	if got, _ := scrape.Sum("rumor_gossip_idle_conns"); got != 0 {
		t.Fatalf("idle links gauge = %v after Close", got)
	}
	if got, _ := scrape.Sum("rumor_gossip_dial_errors_total"); got != 0 {
		t.Fatalf("dial errors = %v", got)
	}
}

func scrapeText(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
