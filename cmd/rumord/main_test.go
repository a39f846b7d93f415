package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"rumor/client"
	"rumor/client/clienttest"
	"rumor/internal/experiments"
	"rumor/internal/service"
)

// startRumord launches run() with the given args plus an ephemeral
// port and returns an SDK client for it and the exit-error channel.
// The daemon is driven exclusively through the typed client — the
// same path every other consumer in the repo uses.
func startRumord(t *testing.T, args ...string) (*client.Client, chan error) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrCh <- a }
	t.Cleanup(func() { onListen = nil })
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(append([]string{"-addr", "127.0.0.1:0"}, args...))
	}()
	select {
	case addr := <-addrCh:
		c, err := client.New("http://" + addr.String())
		if err != nil {
			t.Fatal(err)
		}
		return c, errCh
	case err := <-errCh:
		t.Fatalf("rumord exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("rumord did not start listening")
	}
	return nil, nil
}

// stopRumord SIGTERMs the process and waits for a clean drain.
func stopRumord(t *testing.T, errCh chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("rumord exited with error after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rumord did not drain after SIGTERM")
	}
}

// rawResults streams a job's results from after the given cursor and
// returns the raw NDJSON bytes — the unit of the byte-determinism
// guarantee.
func rawResults(t *testing.T, c *client.Client, id string, after int) []byte {
	t.Helper()
	stream, err := c.Results(context.Background(), id, after)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	var buf bytes.Buffer
	for {
		_, err := stream.Next()
		if err == io.EOF {
			return buf.Bytes()
		}
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		buf.Write(stream.Raw())
		buf.WriteByte('\n')
	}
}

// submitAndStream submits a job spec through the SDK and returns the
// streamed NDJSON result bytes.
func submitAndStream(t *testing.T, c *client.Client, spec service.JobSpec) []byte {
	t.Helper()
	st, err := c.SubmitJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return rawResults(t, c, st.ID, -1)
}

func restartGrid() service.JobSpec {
	return service.JobSpec{
		Families:  []string{"hypercube"},
		Sizes:     []int{64},
		Protocols: []string{"push-pull"},
		Timings:   []string{service.TimingSync, service.TimingAsync},
		Trials:    10,
		Seed:      7,
	}
}

// TestRumordCacheDirSurvivesRestart: a rumord with -cache-dir computes
// a job, drains on SIGTERM (flushing the persistent tier), and a fresh
// rumord over the same directory serves the same job byte-identically
// from disk — the SDK's CacheStats must report the disk-tier hits.
func TestRumordCacheDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := restartGrid()

	c, errCh := startRumord(t, "-workers", "2", "-cache-dir", dir)
	cold := submitAndStream(t, c, spec)
	stopRumord(t, errCh)

	c, errCh = startRumord(t, "-workers", "2", "-cache-dir", dir)
	warm := submitAndStream(t, c, spec)
	if !bytes.Equal(cold, warm) {
		t.Errorf("restarted daemon streamed different bytes\ncold: %s\nwarm: %s", cold, warm)
	}
	snap, err := c.CacheStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.ResultCache == nil || snap.ResultCache.Disk == nil {
		t.Fatalf("cache stats missing tiered result stats: %+v", snap)
	}
	if snap.ResultCache.DiskHits == 0 {
		t.Errorf("restarted daemon served no disk-tier hits: %+v", snap.ResultCache)
	}
	if snap.ResultCache.Hits != snap.ResultCache.MemHits+snap.ResultCache.DiskHits {
		t.Errorf("torn tier counters: %+v", snap.ResultCache)
	}
	if snap.ResultCache.Disk.Records == 0 {
		t.Errorf("disk tier reports no records: %+v", snap.ResultCache.Disk)
	}
	stopRumord(t, errCh)
}

// End-to-end daemon lifecycle through the SDK: rumord starts on an
// ephemeral port, accepts a job, streams NDJSON results, serves the
// experiment registry, runs an experiment, and drains cleanly when the
// process receives SIGTERM.
func TestRumordServesAndDrainsOnSIGTERM(t *testing.T) {
	c, errCh := startRumord(t, "-workers", "2", "-drain-timeout", "30s")
	ctx := context.Background()

	if h, err := c.Health(ctx); err != nil || h.Status != "ok" || h.GoVersion == "" {
		t.Fatalf("healthz = %+v, %v", h, err)
	}

	spec := service.JobSpec{
		Families:  []string{"hypercube", "complete"},
		Sizes:     []int{64},
		Protocols: []string{"push-pull"},
		Timings:   []string{service.TimingSync, service.TimingAsync},
		Trials:    10,
		Seed:      3,
	}
	st, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.CellsTotal != 4 {
		t.Fatalf("submit: %+v", st)
	}
	rows := 0
	if err := c.StreamResults(ctx, st.ID, -1, func(res *service.CellResult) error {
		if res.Index != rows {
			t.Errorf("row %d has index %d: stream out of canonical order", rows, res.Index)
		}
		rows++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 4 {
		t.Fatalf("streamed %d rows, want 4", rows)
	}

	// Experiment endpoints: the registry lists the suite, and running one
	// (E12 is graphless and cheap) streams its cells plus an outcome.
	infos, err := c.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 15 {
		t.Fatalf("experiment registry lists %d entries, want 15", len(infos))
	}
	cells := 0
	outcome, err := c.RunExperiment(ctx, "e12", client.RunExperimentRequest{Quick: true, Seed: 1},
		func(*service.CellResult) error { cells++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if cells != 1 || outcome.ID != "E12" || outcome.Verdict == "" || outcome.Verdict == "FAILED" {
		t.Fatalf("experiment run: %d cells, outcome %+v", cells, outcome)
	}

	stopRumord(t, errCh)
}

// startPeerDaemons spins up n full rumord HTTP surfaces in-process
// (the same scheduler + server + experiments stack run() builds) and
// returns their base URLs — peers for the -peers coordinator mode.
func startPeerDaemons(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		sched := service.NewScheduler(service.SchedulerConfig{
			Workers: 2,
			Results: service.NewResultCache(256),
			Graphs:  service.NewGraphCache(8),
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

// TestRumordShardedEndToEnd: a rumord started with -peers coordinates
// instead of computing — the job shards over three peer daemons and the
// NDJSON stream a client reads off the coordinator is byte-identical to
// a single-node (in-process executor) run of the same cells.
func TestRumordShardedEndToEnd(t *testing.T) {
	peers := startPeerDaemons(t, 3)
	c, errCh := startRumord(t, "-peers", strings.Join(peers, ","))
	ctx := context.Background()

	spec := service.JobSpec{
		Families:  []string{"hypercube", "complete", "star", "cycle"},
		Sizes:     []int{32, 64},
		Protocols: []string{"push-pull", "push"},
		Timings:   []string{service.TimingSync, service.TimingAsync},
		Trials:    6,
		Seed:      13,
	}
	cells := spec.Cells()

	exec := &service.Executor{Graphs: service.NewGraphCache(0)}
	want, err := exec.RunCells(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes bytes.Buffer
	enc := json.NewEncoder(&wantBytes)
	enc.SetEscapeHTML(false)
	for _, res := range want {
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
	}

	if wire := submitAndStream(t, c, spec); !bytes.Equal(wire, wantBytes.Bytes()) {
		t.Errorf("sharded wire stream differs from single-node bytes\nwire:        %s\nsingle-node: %s",
			wire, wantBytes.Bytes())
	}

	// The coordinator's own scrape counts every delivered cell, and the
	// shard families say which peer served it.
	scrape, err := c.PromMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	computed, _ := scrape.Value("rumor_scheduler_cells_total",
		map[string]string{"kind": service.KindTime, "outcome": "computed"})
	if served, _ := scrape.Sum("rumor_shard_cells_total"); computed != float64(len(cells)) || served != computed {
		t.Errorf("coordinator counted %v cells (%v served by peers), want %d", computed, served, len(cells))
	}

	stopRumord(t, errCh)
}

// TestRumordSDKEndToEnd is the acceptance test of the SDK path: a real
// rumord daemon, driven only through the client — idempotent submit, a
// result stream force-cut mid-flight and resumed via the cursor, an
// SSE watch — with every result byte-identical to an in-process
// executor run of the same cells.
func TestRumordSDKEndToEnd(t *testing.T) {
	c, errCh := startRumord(t, "-workers", "2")
	ctx := context.Background()

	spec := service.JobSpec{
		Families:  []string{"hypercube", "complete", "star"},
		Sizes:     []int{64, 128},
		Protocols: []string{"push-pull"},
		Timings:   []string{service.TimingSync, service.TimingAsync},
		Trials:    8,
		Seed:      11,
	}
	cells := spec.Cells()

	// In-process reference: the same cells through the local executor.
	exec := &service.Executor{Graphs: service.NewGraphCache(0)}
	want, err := exec.RunCells(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes bytes.Buffer
	enc := json.NewEncoder(&wantBytes)
	enc.SetEscapeHTML(false)
	for _, res := range want {
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
	}

	// SDK path with a fault-injecting transport: the first results
	// stream is cut after 600 bytes (mid-row), forcing RunCells'
	// auto-resume to reconnect with a cursor.
	cut := &clienttest.CutOnceTransport{Match: "/results", After: 600}
	cutClient, err := client.New(c.BaseURL(), client.WithHTTPClient(&http.Client{Transport: cut}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := cutClient.RunCells(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Cuts() != 1 {
		t.Fatalf("transport cut %d streams, want exactly 1", cut.Cuts())
	}
	var gotBytes bytes.Buffer
	enc = json.NewEncoder(&gotBytes)
	enc.SetEscapeHTML(false)
	for _, res := range got {
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(wantBytes.Bytes(), gotBytes.Bytes()) {
		t.Errorf("SDK results (with forced reconnect) differ from in-process run\nin-process: %s\nsdk:        %s",
			wantBytes.Bytes(), gotBytes.Bytes())
	}

	// The uncut wire stream must carry exactly those bytes, pinning
	// marshal(in-process) == wire NDJSON (the idempotent resubmit binds
	// to the same server-side job).
	st, err := c.SubmitJob(ctx, service.JobSpec{CellList: cells},
		client.WithIdempotencyKey(client.CellsIdempotencyKey(cells)))
	if err != nil {
		t.Fatal(err)
	}
	if wire := rawResults(t, c, st.ID, -1); !bytes.Equal(wire, wantBytes.Bytes()) {
		t.Errorf("wire stream differs from in-process bytes\nwire:       %s\nin-process: %s",
			wire, wantBytes.Bytes())
	}

	// SSE watch: every cell arrives as a "cell" event in canonical
	// order with its index as the SSE id, and the stream ends at the
	// terminal "state" event.
	watch, err := c.Watch(ctx, st.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Close()
	var cellEvents int
	var lastState service.JobState
	for {
		ev, err := watch.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case "cell":
			if ev.ID != cellEvents || ev.Result == nil || ev.Result.Index != cellEvents {
				t.Fatalf("cell event %d out of order: id %d, %+v", cellEvents, ev.ID, ev.Result)
			}
			cellEvents++
		case "state":
			lastState = ev.Status.State
		case "error":
			t.Fatalf("unexpected error event: %v", ev.Err)
		}
	}
	if cellEvents != len(cells) {
		t.Errorf("watch delivered %d cell events, want %d", cellEvents, len(cells))
	}
	if lastState != service.JobDone {
		t.Errorf("terminal state event = %q, want done", lastState)
	}

	stopRumord(t, errCh)
}

// TestRumordCutsSlowHeaderAndIdleClients pins the server's connection
// deadlines: a client that never finishes its request header, and a
// keep-alive client that sends nothing after its response, each have
// their connection closed by the daemon within the deadline, and the
// daemon's goroutines return to their baseline after each.
func TestRumordCutsSlowHeaderAndIdleClients(t *testing.T) {
	defer func(h, i time.Duration) { readHeaderTimeout, idleTimeout = h, i }(readHeaderTimeout, idleTimeout)
	readHeaderTimeout, idleTimeout = 200*time.Millisecond, 300*time.Millisecond
	const cutWithin = 5 * time.Second

	c, errCh := startRumord(t, "-workers", "1")
	addr := strings.TrimPrefix(c.BaseURL(), "http://")
	// The baseline is taken once the daemon serves (one request on a
	// connection it closes) and its goroutine count has stopped moving.
	closed, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(closed, "GET /healthz HTTP/1.1\r\nHost: rumord\r\nConnection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, closed); err != nil {
		t.Fatal(err)
	}
	closed.Close()
	baseline := runtime.NumGoroutine()
	for stable := 0; stable < 10; stable++ {
		time.Sleep(20 * time.Millisecond)
		if n := runtime.NumGoroutine(); n != baseline {
			baseline, stable = n, 0
		}
	}

	// cut waits for the daemon to close conn: a read that ends in EOF (or
	// a reset) before cutWithin, not in the client's own deadline.
	cut := func(name string, conn net.Conn, r io.Reader) {
		t.Helper()
		start := time.Now()
		if err := conn.SetReadDeadline(start.Add(cutWithin)); err != nil {
			t.Fatal(err)
		}
		_, err := io.Copy(io.Discard, r)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("%s: connection still open after %v", name, cutWithin)
		}
		t.Logf("%s: cut after %v (%v)", name, time.Since(start).Round(time.Millisecond), err)
		conn.Close()
		deadline := time.Now().Add(cutWithin)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, baseline %d", name, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(slow, "GET /healthz HTTP/1.1\r\nHost: rumord\r\n"); err != nil {
		t.Fatal(err)
	}
	cut("slow header", slow, slow)

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(idle, "GET /healthz HTTP/1.1\r\nHost: rumord\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(idle)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("healthz: status %d, close %v; want a kept-alive 200", resp.StatusCode, resp.Close)
	}
	cut("idle keep-alive", idle, br)

	stopRumord(t, errCh)
}
