package gossip

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rumor/internal/obs"
	"rumor/internal/service"
)

func startNode(t *testing.T, addr string, metrics *Metrics) *Node {
	t.Helper()
	node := NewNode(metrics)
	if err := node.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node
}

// startMemNode serves a node on m at addr until the test ends.
func startMemNode(t *testing.T, m *memnet, addr string) (*Node, *faultListener) {
	t.Helper()
	ln := m.listen(addr)
	node := memNode(m, ln, nil)
	t.Cleanup(func() { node.Close() })
	return node, ln
}

func pingEnv(t *testing.T) *Envelope {
	t.Helper()
	env, err := NewEnvelope(MethodPing, CoordinatorFrom, nil)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func metricValue(t *testing.T, reg *obs.Registry, family string) float64 {
	t.Helper()
	scrape, err := obs.ParseText(strings.NewReader(scrapeText(t, reg)))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := scrape.Sum(family)
	return v
}

func TestTransportSequentialCallsOneAccept(t *testing.T) {
	m := newMemnet()
	_, ln := startMemNode(t, m, "node")
	reg := obs.NewRegistry()
	tr := memTransport(m, maxIdleLinks, NewMetrics(reg))
	defer tr.close()
	const calls = 50
	for i := 0; i < calls; i++ {
		if _, err := tr.callChecked("node", pingEnv(t), time.Second); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := ln.accepts.Load(); got != 1 {
		t.Fatalf("%d sequential calls opened %d connections, want 1", calls, got)
	}
	if d, r := metricValue(t, reg, "rumor_gossip_dials_total"), metricValue(t, reg, "rumor_gossip_conn_reuses_total"); d != 1 || r != calls-1 {
		t.Fatalf("dials = %v, reuses = %v, want 1 and %d", d, r, calls-1)
	}
	if got := metricValue(t, reg, "rumor_gossip_idle_conns"); got != 1 {
		t.Fatalf("idle gauge = %v with one idle link", got)
	}
	tr.close()
	if got := metricValue(t, reg, "rumor_gossip_idle_conns"); got != 0 {
		t.Fatalf("idle gauge = %v after close", got)
	}
}

// TestTransportConcurrentCallsDistinctLinks holds every reply at the
// node until all the requests have arrived: calls that shared a link
// would queue behind one another and never get there.
func TestTransportConcurrentCallsDistinctLinks(t *testing.T) {
	const calls = 6
	var barrier sync.WaitGroup
	barrier.Add(calls)
	var arrivals atomic.Int64
	m := newMemnet()
	_, ln := startMemNode(t, m, "node")
	ln.setFault(func(*Envelope) fault {
		if arrivals.Add(1) <= calls {
			barrier.Done()
			barrier.Wait()
		}
		return passReply
	})
	tr := memTransport(m, maxIdleLinks, &Metrics{})
	defer tr.close()
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		env := pingEnv(t)
		go func() {
			_, err := tr.callChecked("node", env, 5*time.Second)
			errs <- err
		}()
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := ln.accepts.Load(); got != calls {
		t.Fatalf("%d concurrent calls used %d connections", calls, got)
	}
	// All of them are idle now; sequential calls need no new one.
	for i := 0; i < calls; i++ {
		if _, err := tr.callChecked("node", pingEnv(t), time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := ln.accepts.Load(); got != calls {
		t.Fatalf("sequential calls after the burst opened connections: %d, want %d", got, calls)
	}
}

func TestTransportRedialsRestartedPeer(t *testing.T) {
	first := startNode(t, "127.0.0.1:0", nil)
	addr := first.Addr()
	reg := obs.NewRegistry()
	tr := newTransport(maxIdleLinks, NewMetrics(reg))
	defer tr.close()
	if _, err := tr.callChecked(addr, pingEnv(t), time.Second); err != nil {
		t.Fatal(err)
	}
	first.Close()
	startNode(t, addr, nil)
	if _, err := tr.callChecked(addr, pingEnv(t), time.Second); err != nil {
		t.Fatalf("call after the peer restarted: %v", err)
	}
	if d, r := metricValue(t, reg, "rumor_gossip_dials_total"), metricValue(t, reg, "rumor_gossip_conn_reuses_total"); d != 2 || r != 1 {
		t.Fatalf("dials = %v, reuses = %v, want 2 (one redial) and 1", d, r)
	}
}

// TestTransportNoRetryOnceRequestMayHaveLanded pushes a rumor at a node
// with a high acceptance threshold whose replies to pushes get lost:
// each failed push must have been delivered exactly once.
func TestTransportNoRetryOnceRequestMayHaveLanded(t *testing.T) {
	m := newMemnet()
	node, ln := startMemNode(t, m, "node")
	startup, err := NewEnvelope(MethodStartup, CoordinatorFrom, StartupConfig{
		Protocol: "push", Timing: service.TimingSync, Threshold: 10, // far above the pushes below, so hearings counts them all
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply := node.dispatch(startup); reply.Err != "" {
		t.Fatal(reply.Err)
	}
	hearings := func() int {
		node.mu.Lock()
		defer node.mu.Unlock()
		return node.hearings
	}
	push, err := NewEnvelope(MethodPush, 1, Rumor{Round: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mode atomic.Int64
	ln.setFault(func(*Envelope) fault { return fault(mode.Load()) })
	tr := memTransport(m, maxIdleLinks, &Metrics{})
	defer tr.close()

	// A new link whose server takes the request and closes: no retry,
	// a new link cannot be stale.
	mode.Store(int64(dropReply))
	if _, err := tr.call("node", push, time.Second); err == nil {
		t.Fatal("push whose reply was dropped reported success")
	}
	if a, h := ln.accepts.Load(), hearings(); a != 1 || h != 1 {
		t.Fatalf("after a dropped reply: %d connections, %d hearings, want 1 and 1", a, h)
	}

	mode.Store(int64(passReply))
	if _, err := tr.call("node", push, time.Second); err != nil {
		t.Fatal(err)
	}
	// A reused link whose server takes the request and stalls: the
	// deadline passes, and a deadline is never retried.
	mode.Store(int64(stallReply))
	if _, err := tr.call("node", push, 200*time.Millisecond); err == nil {
		t.Fatal("stalled push reported success")
	}
	if a, r, h := ln.accepts.Load(), ln.requests.Load(), hearings(); a != 2 || r != 3 || h != 3 {
		t.Fatalf("after a stalled reply: %d connections, %d requests, %d hearings, want 2, 3 and 3", a, r, h)
	}
}

func TestTransportEvictsLeastRecentlyUsed(t *testing.T) {
	a, b, c := startNode(t, "127.0.0.1:0", nil).Addr(), startNode(t, "127.0.0.1:0", nil).Addr(), startNode(t, "127.0.0.1:0", nil).Addr()
	reg := obs.NewRegistry()
	tr := newTransport(2, NewMetrics(reg))
	defer tr.close()
	idle := func() string {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		var names []string
		for _, peer := range []struct{ name, addr string }{{"a", a}, {"b", b}, {"c", c}} {
			for range tr.idle[peer.addr] {
				names = append(names, peer.name)
			}
		}
		if len(names) != tr.nidle {
			t.Errorf("nidle = %d, idle lists hold %d", tr.nidle, len(names))
		}
		return strings.Join(names, "")
	}
	for _, step := range []struct{ call, want string }{
		{a, "a"}, {b, "ab"}, {c, "bc"}, // a was the oldest
		{b, "bc"}, {a, "ab"}, // b was just used, so c goes
	} {
		if _, err := tr.callChecked(step.call, pingEnv(t), time.Second); err != nil {
			t.Fatal(err)
		}
		if got := idle(); got != step.want {
			t.Fatalf("idle links %q, want %q", got, step.want)
		}
	}
	if got := metricValue(t, reg, "rumor_gossip_idle_conns"); got != 2 {
		t.Fatalf("idle gauge = %v, want the cap 2", got)
	}
	if got := metricValue(t, reg, "rumor_gossip_dials_total"); got != 4 {
		t.Fatalf("dials = %v, want 4 (a, b, c, a again)", got)
	}
}

func TestTransportDropsLinksIdleTooLong(t *testing.T) {
	m := newMemnet()
	_, ln := startMemNode(t, m, "node")
	tr := memTransport(m, maxIdleLinks, &Metrics{})
	defer tr.close()
	if _, err := tr.callChecked("node", pingEnv(t), time.Second); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	for _, l := range tr.idle["node"] {
		l.idleSince = l.idleSince.Add(-linkIdleTimeout - time.Second)
	}
	tr.mu.Unlock()
	if _, err := tr.callChecked("node", pingEnv(t), time.Second); err != nil {
		t.Fatal(err)
	}
	if got := ln.accepts.Load(); got != 2 {
		t.Fatalf("%d connections, want 2: an expired link must not be reused", got)
	}
	tr.mu.Lock()
	n := tr.nidle
	tr.mu.Unlock()
	if n != 1 {
		t.Fatalf("nidle = %d after the expired link was replaced", n)
	}
}

// TestMixedFleetOneShotServers runs trials over loopback TCP against
// nodes that close every connection after its first reply, as a server
// without connection reuse would: every reused link is stale, every
// call redials once, and nothing is lost or delivered twice. (The other
// direction — a one-shot Call against a node — is what every test
// using Call does.)
func TestMixedFleetOneShotServers(t *testing.T) {
	const n = 8
	reg := obs.NewRegistry()
	metrics := NewMetrics(reg)
	var addrs []string
	for i := 0; i < n; i++ {
		tcp, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln := &faultListener{Listener: tcp}
		ln.setFault(func(*Envelope) fault { return closeAfterReply })
		node := NewNode(metrics)
		node.serve(ln)
		t.Cleanup(func() { node.Close() })
		addrs = append(addrs, node.Addr())
	}
	c, err := Attach(addrs, metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, timing := range []string{service.TimingSync, service.TimingAsync} {
		spec := testSpec("complete", n, "push-pull", timing)
		spec.Threshold = 2
		res, err := c.RunTrial(spec)
		if err != nil {
			t.Fatalf("%s: %v", timing, err)
		}
		checkFullCoverage(t, res)
		// An async report sweep can catch a message in flight.
		if timing == service.TimingSync && res.Sent != res.Received {
			t.Fatalf("sent %d, received %d", res.Sent, res.Received)
		}
	}
	if got := metricValue(t, reg, "rumor_gossip_dial_errors_total"); got != 0 {
		t.Fatalf("dial errors = %v", got)
	}
	if got := metricValue(t, reg, "rumor_gossip_conn_reuses_total"); got == 0 {
		t.Fatal("no link was reused, so no stale link was redialled")
	}
}
