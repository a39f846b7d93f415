package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rumor/client"
	"rumor/client/clienttest"
	"rumor/internal/experiments"
	"rumor/internal/service"
)

func TestRunSingleQuickExperiment(t *testing.T) {
	// E12 is the cheapest self-contained experiment.
	if err := run([]string{"-run", "E12", "-quick"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "E99"}, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestCacheDirSurvivesRestart is the persistent-cache acceptance
// check at single-experiment scale: the second run() call builds a
// fresh process state (new LRU, new store handle) over the same
// directory, replays every cell from disk, and prints byte-identical
// output.
func TestCacheDirSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	var first, second bytes.Buffer
	if err := run([]string{"-run", "E12", "-quick", "-cache-dir", dir}, &first); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.ndjson"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files written to -cache-dir: %v, %v", segs, err)
	}
	if err := run([]string{"-run", "E12", "-quick", "-cache-dir", dir}, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("restarted warm run diverged from cold run\ncold:\n%s\nwarm:\n%s", first.String(), second.String())
	}
}

// TestQuickSuiteCacheDirRestart runs the full quick suite twice over
// one -cache-dir: the second run must replay warm from disk after the
// simulated process restart, with byte-identical verdict rows.
func TestQuickSuiteCacheDirRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite twice")
	}
	dir := filepath.Join(t.TempDir(), "cache")
	var cold, warm bytes.Buffer
	start := time.Now()
	if err := run([]string{"-quick", "-cache-dir", dir}, &cold); err != nil {
		t.Fatal(err)
	}
	coldDur := time.Since(start)
	start = time.Now()
	if err := run([]string{"-quick", "-cache-dir", dir}, &warm); err != nil {
		t.Fatal(err)
	}
	warmDur := time.Since(start)
	if cold.String() != warm.String() {
		t.Error("warm-from-disk suite output diverged from cold run")
	}
	t.Logf("cold %v, warm-from-disk %v", coldDur, warmDur)
	if warmDur > coldDur {
		t.Errorf("warm replay (%v) slower than cold run (%v)", warmDur, coldDur)
	}
}

func TestRunQuickSuiteWithMarkdownReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite")
	}
	dir := t.TempDir()
	md := filepath.Join(dir, "report.md")
	if err := run([]string{"-quick", "-md", md}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	report := string(data)
	for _, want := range []string{"# Experiment report", "Mode: quick", "| E1 |", "| E15 |"} {
		if !strings.Contains(report, want) {
			t.Errorf("markdown report missing %q", want)
		}
	}
}

// startSuiteServer spins up the full rumord HTTP surface (jobs +
// experiment endpoints) in-process for -server tests.
func startSuiteServer(t *testing.T) string {
	t.Helper()
	sched := service.NewScheduler(service.SchedulerConfig{
		Workers: 4,
		Results: service.NewResultCache(0),
		Graphs:  service.NewGraphCache(0),
	})
	srv := service.NewServer(sched)
	experiments.Mount(srv, sched)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		sched.Shutdown(context.Background())
	})
	return ts.URL
}

// TestServerModeSingleExperiment: the cheap smoke — one experiment via
// -server matches the in-process run byte for byte.
func TestServerModeSingleExperiment(t *testing.T) {
	url := startSuiteServer(t)
	var local, remote bytes.Buffer
	if err := run([]string{"-run", "E12", "-quick"}, &local); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", "E12", "-quick", "-server", url}, &remote); err != nil {
		t.Fatal(err)
	}
	if local.String() != remote.String() {
		t.Errorf("-server output diverged\nlocal:\n%s\nremote:\n%s", local.String(), remote.String())
	}
}

func TestServerModeFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-server", "http://localhost:1", "-cache-dir", "/tmp/x"},
		{"-server", "://bad"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestServerModeSuiteMatchesLocalWithReconnect is the acceptance check
// of the SDK spine: `experiments -quick -server URL` reproduces the
// suite verdicts byte-identical to the in-process path, even
// when one result stream is force-cut mid-suite — the SDK reconnects
// with a cursor and no cell is recomputed or dropped.
func TestServerModeSuiteMatchesLocalWithReconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	url := startSuiteServer(t)

	// Give the SDK client a transport that cuts the first results stream
	// after 900 bytes (mid-row, mid-suite).
	cut := &clienttest.CutOnceTransport{Match: "/results", After: 900}
	clientOptions = []client.Option{
		client.WithHTTPClient(&http.Client{Transport: cut}),
		client.WithBackoff(time.Millisecond, 50*time.Millisecond),
	}
	t.Cleanup(func() { clientOptions = nil })

	var local, remote bytes.Buffer
	if err := run([]string{"-quick"}, &local); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-server", url}, &remote); err != nil {
		t.Fatal(err)
	}
	if cut.Cuts() != 1 {
		t.Fatalf("transport cut %d streams, want exactly 1", cut.Cuts())
	}
	if local.String() != remote.String() {
		t.Errorf("-server suite output diverged from in-process run after forced reconnect")
	}
}

// startSuiteCluster spins up n independent rumord surfaces for -peers
// tests and returns their base URLs.
func startSuiteCluster(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = startSuiteServer(t)
	}
	return urls
}

// TestPeersModeSingleExperiment: one experiment sharded over two peers
// matches the in-process run byte for byte, and -metrics-out dumps the
// coordinator's rumor_shard_* families.
func TestPeersModeSingleExperiment(t *testing.T) {
	urls := startSuiteCluster(t, 2)
	snap := filepath.Join(t.TempDir(), "shard.prom")
	var local, remote bytes.Buffer
	if err := run([]string{"-run", "E12", "-quick"}, &local); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", "E12", "-quick",
		"-peers", strings.Join(urls, ","), "-metrics-out", snap}, &remote); err != nil {
		t.Fatal(err)
	}
	if local.String() != remote.String() {
		t.Errorf("-peers output diverged\nlocal:\n%s\nsharded:\n%s", local.String(), remote.String())
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rumor_shard_peers 2", "rumor_shard_cells_total"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
}

func TestPeersModeFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-peers", "http://localhost:1", "-server", "http://localhost:2"},
		{"-peers", "http://localhost:1", "-cache-dir", "/tmp/x"},
		{"-peers", " , "},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestPeersModeSuiteSurvivesPeerKill is the churn acceptance check at
// suite scale: the quick suite shards over three peers, one peer
// is killed mid-suite (stream cut, then every request refused), and the
// suite still finishes with output byte-identical to the in-process
// run — the coordinator reassigns the dead peer's cells to survivors.
func TestPeersModeSuiteSurvivesPeerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	urls := startSuiteCluster(t, 3)
	victim, err := neturl.Parse(urls[0])
	if err != nil {
		t.Fatal(err)
	}
	kill := &clienttest.PeerDownTransport{Host: victim.Host, Match: "/results", After: 900}
	clientOptions = []client.Option{
		client.WithHTTPClient(&http.Client{Transport: kill}),
		client.WithRetries(2),
		client.WithBackoff(time.Millisecond, 5*time.Millisecond),
	}
	t.Cleanup(func() { clientOptions = nil })

	var local, remote bytes.Buffer
	if err := run([]string{"-quick"}, &local); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "shard.prom")
	if err := run([]string{"-quick", "-peers", strings.Join(urls, ","), "-metrics-out", snap}, &remote); err != nil {
		t.Fatalf("sharded suite did not survive the peer kill: %v", err)
	}
	if !kill.Down() {
		t.Fatal("the victim peer was never killed: the fixture did not engage")
	}
	if local.String() != remote.String() {
		t.Errorf("-peers suite output diverged from in-process run after a peer kill")
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "rumor_shard_reassignments_total") ||
		strings.Contains(string(data), "rumor_shard_reassignments_total 0\n") {
		t.Error("metrics snapshot records no reassignments after the kill")
	}
}
