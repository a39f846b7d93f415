package main

import (
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"testing"

	"rumor/internal/core"
	"rumor/internal/service"
)

func TestRunHappyPath(t *testing.T) {
	err := run([]string{"-graph", "complete", "-n", "32", "-trials", "5", "-timing", "both", "-seed", "7"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSweep(t *testing.T) {
	err := run([]string{"-graph", "star", "-sweep", "16, 32", "-trials", "5", "-timing", "sync", "-csv"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunCurve(t *testing.T) {
	err := run([]string{"-graph", "complete", "-n", "24", "-trials", "5", "-curve", "-curve-points", "5"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunCurveHonoursScenarioFlags: -curve samples the scenario the other
// flags describe — it used to run source 0 on a lossless channel whatever
// they said.
func TestRunCurveHonoursScenarioFlags(t *testing.T) {
	base := []string{"-graph", "star", "-n", "64", "-trials", "5", "-curve", "-curve-points", "6", "-csv"}
	curve := func(extra ...string) string {
		t.Helper()
		return captureStdout(t, func() {
			if err := run(append(append([]string{}, base...), extra...)); err != nil {
				t.Error(err)
			}
		})
	}
	hub := curve()
	for _, tc := range []struct {
		name string
		args []string
		same bool
	}{
		{"explicit hub source", []string{"-source", "0"}, true},
		{"leaf source", []string{"-source", "5"}, false},
		{"lossy channel", []string{"-loss", "0.5"}, false},
		{"per-node view draws what the global clock draws", []string{"-view", "per-node-clocks"}, true},
	} {
		if got := curve(tc.args...); (got == hub) != tc.same {
			t.Errorf("%s: curve equal to the default's = %v, want %v\n%s", tc.name, got == hub, tc.same, got)
		}
	}
	if err := run(append(base, "-source", "9999")); !errors.Is(err, core.ErrBadSource) {
		t.Errorf("-source outside the graph: %v, want core.ErrBadSource", err)
	}
	for _, args := range [][]string{
		{"-sweep", "16,32"},
		{"-loss", "1"},
		{"-view", "bogus"},
	} {
		if err := run(append(append([]string{}, base...), args...)); err == nil {
			t.Errorf("-curve with %v accepted", args)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-graph", "nonexistent"},
		{"-protocol", "bogus"},
		{"-timing", "sometimes"},
		{"-graph", "complete", "-sweep", "12,abc"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunSourceOutOfRangeFails(t *testing.T) {
	// A -source outside the built graph fails the cell; it is never
	// rewritten to node 0 (distinct cache keys, identical results).
	err := run([]string{"-graph", "complete", "-n", "16", "-trials", "3", "-source", "9999", "-timing", "sync"})
	if !errors.Is(err, core.ErrBadSource) || !errors.Is(err, service.ErrBadSpec) {
		t.Fatalf("err = %v, want ErrBadSpec wrapping core.ErrBadSource", err)
	}
}

// startTestServer spins up the full rumord HTTP surface in-process for
// -server mode tests.
func startTestServer(t *testing.T) string {
	t.Helper()
	sched := service.NewScheduler(service.SchedulerConfig{Workers: 2})
	ts := httptest.NewServer(service.NewServer(sched))
	t.Cleanup(func() {
		ts.Close()
		sched.Shutdown(context.Background())
	})
	return ts.URL
}

// TestRunServerModeMatchesLocal: -server routes the same cells through
// a rumord daemon via the SDK and prints byte-identical output.
func TestRunServerModeMatchesLocal(t *testing.T) {
	url := startTestServer(t)
	args := []string{"-graph", "complete", "-sweep", "16,32", "-trials", "5", "-timing", "both", "-seed", "7", "-csv"}

	local := captureStdout(t, func() {
		if err := run(args); err != nil {
			t.Error(err)
		}
	})
	remote := captureStdout(t, func() {
		if err := run(append(args, "-server", url)); err != nil {
			t.Error(err)
		}
	})
	if local != remote {
		t.Errorf("-server output differs from local run\nlocal:\n%s\nremote:\n%s", local, remote)
	}
}

func TestRunServerModeFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-server", "http://localhost:1", "-curve"},
		{"-server", "://bad-url"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// captureStdout redirects os.Stdout around fn (the CLI writes tables
// straight to stdout).
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}
