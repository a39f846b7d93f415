package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rumor/client"
	"rumor/client/clienttest"
	"rumor/internal/api"
	"rumor/internal/experiments"
	"rumor/internal/obs"
	"rumor/internal/service"
	"rumor/internal/shard"
)

// startPeers spins up n full rumord HTTP surfaces in-process and
// returns their base URLs.
func startPeers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		sched := service.NewScheduler(service.SchedulerConfig{
			Workers: 2,
			Results: service.NewResultCache(0),
			Graphs:  service.NewGraphCache(0),
		})
		srv := service.NewServer(sched)
		experiments.Mount(srv, sched)
		ts := httptest.NewServer(srv)
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = sched.Shutdown(ctx)
		})
		urls[i] = ts.URL
	}
	return urls
}

func testCells(t *testing.T) []service.CellSpec {
	t.Helper()
	spec := service.JobSpec{
		Families:  []string{"hypercube", "complete", "star", "cycle"},
		Sizes:     []int{32, 64},
		Protocols: []string{"push-pull", "push"},
		Timings:   []string{service.TimingSync, service.TimingAsync},
		Trials:    6,
		Seed:      13,
	}
	return spec.Cells()
}

// marshalResults renders results the way the NDJSON wire does — the
// byte-identity unit.
func marshalResults(t *testing.T, results []*service.CellResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	for _, res := range results {
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// localReference computes the same cells in-process.
func localReference(t *testing.T, cells []service.CellSpec) []byte {
	t.Helper()
	exec := &service.Executor{Graphs: service.NewGraphCache(0)}
	want, err := exec.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	return marshalResults(t, want)
}

func TestNewValidatesPeers(t *testing.T) {
	if _, err := shard.New(shard.Config{}); err == nil {
		t.Error("empty peer list accepted")
	}
	if _, err := shard.New(shard.Config{Peers: []string{" ", ""}}); err == nil {
		t.Error("blank peer list accepted")
	}
	if _, err := shard.New(shard.Config{Peers: []string{"http://h:1", "h:1"}}); err == nil {
		t.Error("duplicate peer (after normalization) accepted")
	}
	co, err := shard.New(shard.Config{Peers: []string{"host-a:9101", "http://host-b:9102/"}})
	if err != nil {
		t.Fatal(err)
	}
	got := co.Peers()
	want := []string{"http://host-a:9101", "http://host-b:9102"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("normalized peers = %v, want %v", got, want)
	}
}

// TestShardedRunMatchesSingleNode: the tentpole's determinism
// contract — 3 peers, one batch, byte-identical to the in-process
// executor, every cell delivered exactly once, and work actually
// spread over more than one peer.
func TestShardedRunMatchesSingleNode(t *testing.T) {
	urls := startPeers(t, 3)
	reg := obs.NewRegistry()
	co, err := shard.New(shard.Config{Peers: urls, Metrics: shard.NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(t)

	var mu sync.Mutex
	delivered := make(map[int]int)
	got, err := co.StreamCells(context.Background(), cells, func(res *service.CellResult) error {
		mu.Lock()
		delivered[res.Index]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if delivered[i] != 1 {
			t.Errorf("cell %d delivered %d times, want exactly once", i, delivered[i])
		}
	}
	if want, gotB := localReference(t, cells), marshalResults(t, got); !bytes.Equal(want, gotB) {
		t.Errorf("sharded results differ from single-node run\nlocal:  %s\nshard:  %s", want, gotB)
	}

	// The ring must have spread the batch: with 32 cells on 3 peers,
	// at least two peers served results.
	families, err := obs.ParseText(bytes.NewReader(scrape(t, reg)))
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	var total float64
	if fam := families["rumor_shard_cells_total"]; fam != nil {
		for _, s := range fam.Samples {
			if s.Value > 0 {
				served++
				total += s.Value
			}
		}
	}
	if served < 2 {
		t.Errorf("only %d peers served cells: ring did not spread the batch", served)
	}
	if int(total) != len(cells) {
		t.Errorf("rumor_shard_cells_total sums to %v, want %d", total, len(cells))
	}
}

// TestEvenSplitOverTwoPeers: a batch shaped like the benchmark's
// shard_fanout pass — 64 random-regular push-pull cells, sync and async
// alternating, over 8 graphs — splits 32/32 over two peers whatever
// their ring points, and still merges byte-identical to the in-process
// executor.
func TestEvenSplitOverTwoPeers(t *testing.T) {
	urls := startPeers(t, 2)
	reg := obs.NewRegistry()
	co, err := shard.New(shard.Config{Peers: urls, Metrics: shard.NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]service.CellSpec, 64)
	for k := range cells {
		cells[k] = service.CellSpec{
			Family: "random-regular", N: 128, Protocol: "push-pull",
			Timing: []string{service.TimingSync, service.TimingAsync}[k%2],
			Trials: 3, GraphSeed: uint64(k % 8), TrialSeed: uint64(100 + k),
		}
	}
	got, err := co.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if want, gotB := localReference(t, cells), marshalResults(t, got); !bytes.Equal(want, gotB) {
		t.Errorf("evenly split results differ from single-node run")
	}
	families, err := obs.ParseText(bytes.NewReader(scrape(t, reg)))
	if err != nil {
		t.Fatal(err)
	}
	for _, peer := range co.Peers() {
		v, ok := families.Value("rumor_shard_assigned_cells_total", map[string]string{"peer": peer})
		if !ok || v != 32 {
			t.Errorf("peer %s assigned %v cells (present %v), want 32", peer, v, ok)
		}
	}
}

// dynamicCells is an explicit batch over the v3 scenario axes (the
// JobSpec grid has no dynamic dimensions): re-sampling, perturbation,
// and a churn schedule, in both timings.
func dynamicCells(t *testing.T) []service.CellSpec {
	t.Helper()
	churn := []service.ChurnSpec{
		{Node: 3, Time: 1, Op: service.ChurnOpLeave},
		{Node: 3, Time: 4, Op: service.ChurnOpJoin, DropState: true},
		{Node: 7, Time: 2, Op: service.ChurnOpLeave},
	}
	return []service.CellSpec{
		{Family: "gnp-threshold", N: 48, Protocol: "push-pull", Timing: service.TimingSync,
			Dynamic: service.DynamicResample, Trials: 4, GraphSeed: 1, TrialSeed: 2},
		{Family: "gnp-threshold", N: 48, Protocol: "push-pull", Timing: service.TimingAsync,
			Dynamic: service.DynamicResample, Trials: 4, GraphSeed: 1, TrialSeed: 3},
		{Family: "gnp", N: 48, Protocol: "push", Timing: service.TimingSync,
			Dynamic: service.DynamicPerturb, DynamicPeriod: 2, PerturbRate: 0.3,
			Trials: 4, GraphSeed: 4, TrialSeed: 5},
		{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: service.TimingSync,
			Churn: churn, Trials: 4, GraphSeed: 7, TrialSeed: 8},
		{Family: "hypercube", N: 32, Protocol: "push-pull", Timing: service.TimingAsync,
			Churn: churn, Trials: 4, GraphSeed: 7, TrialSeed: 9},
	}
}

// TestShardedDynamicCellsMatchLocal: dynamic and churn cells survive
// the wire round-trip and shard placement byte-identically — the
// `-peers` leg of the E17 acceptance criterion, at test scale.
func TestShardedDynamicCellsMatchLocal(t *testing.T) {
	urls := startPeers(t, 3)
	co, err := shard.New(shard.Config{Peers: urls})
	if err != nil {
		t.Fatal(err)
	}
	cells := dynamicCells(t)
	got, err := co.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if want, gotB := localReference(t, cells), marshalResults(t, got); !bytes.Equal(want, gotB) {
		t.Errorf("sharded dynamic cells differ from single-node run\nlocal: %s\nshard: %s", want, gotB)
	}
}

// scrape renders the registry to Prometheus text.
func scrape(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFailoverOnPeerKilledMidStream is the churn acceptance test: one
// peer is SIGKILL-simulated mid-stream (its result stream truncated
// and every later request refused), and the coordinator must reassign
// its unfinished cells to the survivors, deliver every cell exactly
// once, and still produce byte-identical merged output.
func TestFailoverOnPeerKilledMidStream(t *testing.T) {
	urls := startPeers(t, 3)
	victim, err := url.Parse(urls[0])
	if err != nil {
		t.Fatal(err)
	}
	kill := &clienttest.PeerDownTransport{Host: victim.Host, Match: "/results", After: 400}
	reg := obs.NewRegistry()
	co, err := shard.New(shard.Config{
		Peers:   urls,
		Metrics: shard.NewMetrics(reg),
		ClientOptions: []client.Option{
			client.WithHTTPClient(&http.Client{Transport: kill}),
			client.WithRetries(2),
			client.WithBackoff(time.Millisecond, 5*time.Millisecond),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(t)

	var mu sync.Mutex
	delivered := make(map[int]int)
	got, err := co.StreamCells(context.Background(), cells, func(res *service.CellResult) error {
		mu.Lock()
		delivered[res.Index]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("sharded run did not survive the peer kill: %v", err)
	}
	if !kill.Down() {
		t.Fatal("the victim peer was never killed: the fixture did not engage")
	}
	if kill.Denied() == 0 {
		t.Error("no requests were refused after the kill: the client never retried the dead peer")
	}

	// Exactly-once delivery across the failover.
	for i := range cells {
		if delivered[i] != 1 {
			t.Errorf("cell %d delivered %d times across failover, want exactly once", i, delivered[i])
		}
	}
	// Byte-identical merged output.
	if want, gotB := localReference(t, cells), marshalResults(t, got); !bytes.Equal(want, gotB) {
		t.Errorf("post-failover results differ from single-node run")
	}

	// The instruments must record the event: a peer failure and a
	// positive reassignment count.
	families, err := obs.ParseText(bytes.NewReader(scrape(t, reg)))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := families.Value("rumor_shard_reassignments_total", nil); !ok || v == 0 {
		t.Errorf("rumor_shard_reassignments_total = %v, %v; want > 0", v, ok)
	}
	if failures, _ := families.Sum("rumor_shard_peer_failures_total"); failures == 0 {
		t.Error("rumor_shard_peer_failures_total recorded nothing")
	}
}

// TestAllPeersDead: when every peer is unreachable the batch fails
// with a clear error instead of spinning.
func TestAllPeersDead(t *testing.T) {
	// A closed listener: connection refused for every request.
	ts := httptest.NewServer(http.NotFoundHandler())
	deadURL := ts.URL
	ts.Close()
	co, err := shard.New(shard.Config{
		Peers: []string{deadURL},
		ClientOptions: []client.Option{
			client.WithRetries(1),
			client.WithBackoff(time.Millisecond, 2*time.Millisecond),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(t)[:2]
	if _, err := co.RunCells(context.Background(), cells); err == nil {
		t.Fatal("batch against a dead cluster succeeded")
	}
}

// TestBadSpecIsFatalNotFailover: a spec every peer would reject must
// abort the batch as a typed API error, not burn through the cluster
// as a chain of "peer failures".
func TestBadSpecIsFatalNotFailover(t *testing.T) {
	urls := startPeers(t, 2)
	co, err := shard.New(shard.Config{Peers: urls})
	if err != nil {
		t.Fatal(err)
	}
	bad := []service.CellSpec{{Family: "no-such-family", N: 8, Protocol: "push", Timing: "sync", Trials: 1}}
	_, err = co.RunCells(context.Background(), bad)
	if !api.IsCode(err, api.CodeInvalidSpec) {
		t.Fatalf("err = %v, want the typed invalid_spec error", err)
	}
}

// TestContextCancellation: cancelling the batch context surfaces
// context.Canceled promptly rather than a failover cascade.
func TestContextCancellation(t *testing.T) {
	urls := startPeers(t, 2)
	co, err := shard.New(shard.Config{Peers: urls})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := co.RunCells(ctx, testCells(t)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEmptyBatchRejected pins the CellRunner contract every door keeps:
// an empty batch is a bad spec, refused before any peer is asked.
func TestEmptyBatchRejected(t *testing.T) {
	co, err := shard.New(shard.Config{Peers: []string{"http://localhost:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.RunCells(context.Background(), nil); !errors.Is(err, service.ErrBadSpec) {
		t.Errorf("empty batch: err = %v, want service.ErrBadSpec", err)
	}
}

// TestStreamCellsStopsAtFnError: fn's first error stops every partition,
// not just the one that delivered the cell — fn is not called again and
// its error comes back as is — so a failing reducer is never re-entered.
func TestStreamCellsStopsAtFnError(t *testing.T) {
	co, err := shard.New(shard.Config{Peers: startPeers(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("reducer failed")
	calls := 0
	_, err = co.StreamCells(context.Background(), testCells(t), func(*service.CellResult) error {
		calls++
		return stop
	})
	if err != stop || calls != 1 {
		t.Errorf("err = %v after %d fn calls, want fn's own error after one", err, calls)
	}
}

// TestSinglePeerRing covers the degenerate one-peer topology: every
// cell lands in a single partition (no spreading, no failover
// headroom) and the output must still be byte-identical to the
// in-process executor.
func TestSinglePeerRing(t *testing.T) {
	urls := startPeers(t, 1)
	reg := obs.NewRegistry()
	co, err := shard.New(shard.Config{Peers: urls, Metrics: shard.NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(t)
	results, err := co.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalResults(t, results), localReference(t, cells); !bytes.Equal(got, want) {
		t.Error("single-peer sharded run is not byte-identical to the in-process executor")
	}
	// One peer owns the whole key space: every cell was assigned (and
	// delivered) by that one peer.
	families, err := obs.ParseText(bytes.NewReader(scrape(t, reg)))
	if err != nil {
		t.Fatal(err)
	}
	if assigned, _ := families.Sum("rumor_shard_assigned_cells_total"); int(assigned) != len(cells) {
		t.Errorf("assigned = %v, want %d (all cells on the single peer)", assigned, len(cells))
	}
}

// TestSinglePeerRingFailoverAborts: with one peer there is nowhere to
// reassign to — killing the peer mid-stream must abort the batch with
// the all-peers-failed error, not spin on an empty ring.
func TestSinglePeerRingFailoverAborts(t *testing.T) {
	urls := startPeers(t, 1)
	u, err := url.Parse(urls[0])
	if err != nil {
		t.Fatal(err)
	}
	kill := &clienttest.PeerDownTransport{Host: u.Host, Match: "/results", After: 1}
	co, err := shard.New(shard.Config{
		Peers: urls,
		ClientOptions: []client.Option{
			client.WithHTTPClient(&http.Client{Transport: kill}),
			client.WithRetries(1),
			client.WithBackoff(time.Millisecond, 2*time.Millisecond),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = co.RunCells(context.Background(), testCells(t))
	if err == nil {
		t.Fatal("batch over a killed single peer succeeded")
	}
	if !strings.Contains(err.Error(), "all 1 peers failed") {
		t.Errorf("err = %v, want the all-peers-failed abort", err)
	}
}

// TestAllDuplicatePeersRejectedUpFront: a peer list that dedups to a
// single address — in any normalization disguise — is a configuration
// error caught before any client or ring is built, not a silently
// shrunken ring.
func TestAllDuplicatePeersRejectedUpFront(t *testing.T) {
	lists := [][]string{
		{"h:1", "h:1", "h:1"},
		{"h:1", "http://h:1", "http://h:1/"},
		{" h:1 ", "h:1"},
	}
	for _, peers := range lists {
		if _, err := shard.New(shard.Config{Peers: peers}); err == nil {
			t.Errorf("shard.New(%q) accepted an all-duplicates peer list", peers)
		} else if !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("shard.New(%q) error = %v, want duplicate rejection", peers, err)
		}
	}
}

// logged is one daemon's JSON log, written by its handlers and read by
// the test.
type logged struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logged) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// accessLines returns the log's "http request" lines as route → the
// request IDs seen on it.
func (l *logged) accessLines(t *testing.T) map[string][]string {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	byRoute := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(l.buf.String()), "\n") {
		var rec struct {
			Msg       string `json:"msg"`
			Route     string `json:"route"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec.Msg == "http request" {
			byRoute[rec.Route] = append(byRoute[rec.Route], rec.RequestID)
		}
	}
	return byRoute
}

// waitAccessLines is accessLines once every route in routes has a line,
// or after five seconds: a daemon logs a request when its handler
// returns, and a peer's stream handler can return after the coordinator
// has read its last row and finished the caller's job.
func (l *logged) waitAccessLines(t *testing.T, routes ...string) map[string][]string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		byRoute := l.accessLines(t)
		missing := slices.ContainsFunc(routes, func(r string) bool { return len(byRoute[r]) == 0 })
		if !missing || time.Now().After(deadline) {
			return byRoute
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startDaemon is one rumord HTTP surface with its access log captured;
// remote, when non-nil, makes it a -peers coordinator.
func startDaemon(t *testing.T, remote service.CellRunner) (string, *logged) {
	t.Helper()
	out := &logged{}
	log, err := obs.NewLogger(out, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	observ := service.NewObservability(obs.NewRegistry(), log)
	sched := service.NewScheduler(service.SchedulerConfig{Workers: 2, Obs: observ, Remote: remote})
	ts := httptest.NewServer(service.NewServer(sched, service.WithObservability(observ)))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	})
	return ts.URL, out
}

// TestRequestIDForwarded: the SDK sends the request ID its context
// carries, and a job keeps the ID of the request that submitted it, so
// one ID names a sharded job on every daemon it touched: the caller's
// submit on the coordinator, and the coordinator's own submit and result
// stream on the peer, which used to be logged under IDs the peer made up.
func TestRequestIDForwarded(t *testing.T) {
	peerURL, peerLog := startDaemon(t, nil)
	co, err := shard.New(shard.Config{Peers: []string{peerURL}})
	if err != nil {
		t.Fatal(err)
	}
	coordURL, coordLog := startDaemon(t, co)

	const id = "trace-me-42"
	ctx := obs.WithRequestID(context.Background(), id)
	cl, err := client.New(coordURL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.SubmitJob(ctx, service.JobSpec{CellList: testCells(t)[:3]})
	if err != nil {
		t.Fatal(err)
	}
	// The stream is read under a context with no ID: what reaches the
	// peer below came with the job, not with this request.
	if err := cl.StreamResults(context.Background(), st.ID, -1, func(*service.CellResult) error { return nil }); err != nil {
		t.Fatal(err)
	}

	routes := []string{"POST /v1/jobs", "GET /v1/jobs/{id}/results"}
	coord := coordLog.waitAccessLines(t, routes...)
	if got := coord["POST /v1/jobs"]; len(got) != 1 || got[0] != id {
		t.Errorf("coordinator logged the submit under %v, want [%s]", got, id)
	}
	if got := coord["GET /v1/jobs/{id}/results"]; len(got) != 1 || got[0] == id || got[0] == "" {
		t.Errorf("coordinator logged the ID-less stream request under %v, want an ID of its own", got)
	}
	peer := peerLog.waitAccessLines(t, routes...)
	for _, route := range routes {
		if got := peer[route]; len(got) == 0 || slices.ContainsFunc(got, func(s string) bool { return s != id }) {
			t.Errorf("peer logged %s under %v, want every line under %s", route, got, id)
		}
	}
}

// TestFailoverLogCarriesRequestID: the coordinator's failover line is
// logged under the batch's ctx, so it carries the request ID of the
// caller whose batch lost a peer.
func TestFailoverLogCarriesRequestID(t *testing.T) {
	urls := startPeers(t, 2)
	victim, err := url.Parse(urls[0])
	if err != nil {
		t.Fatal(err)
	}
	kill := &clienttest.PeerDownTransport{Host: victim.Host, Match: "/results", After: 1}
	out := &logged{}
	log, err := obs.NewLogger(out, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	co, err := shard.New(shard.Config{
		Peers: urls,
		Log:   log,
		ClientOptions: []client.Option{
			client.WithHTTPClient(&http.Client{Transport: kill}),
			client.WithRetries(1),
			client.WithBackoff(time.Millisecond, 2*time.Millisecond),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const id = "failover-9"
	if _, err := co.RunCells(obs.WithRequestID(context.Background(), id), testCells(t)); err != nil {
		t.Fatalf("sharded run did not survive the peer kill: %v", err)
	}
	if !kill.Down() {
		t.Fatal("the victim peer was never killed: the fixture did not engage")
	}
	out.mu.Lock()
	defer out.mu.Unlock()
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(out.buf.String()), "\n") {
		var rec struct {
			Msg       string `json:"msg"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if strings.HasPrefix(rec.Msg, "shard peer failed") {
			ids = append(ids, rec.RequestID)
		}
	}
	if len(ids) != 1 || ids[0] != id {
		t.Errorf("failover lines carry request IDs %q, want exactly one under %s", ids, id)
	}
}
