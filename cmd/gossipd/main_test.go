package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rumor/internal/core"
	"rumor/internal/gossip"
)

func TestCoordinatorOverlaySelfHost(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-coordinator", "-family", "complete", "-n", "8",
		"-protocol", "push-pull", "-timing", "sync",
		"-trials", "1", "-sim-trials", "2", "-seed", "3",
		"-max-ratio", "25",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"E16 overlay", "spreading-time ratio"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestCoordinatorLiveOnly(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-coordinator", "-overlay=false", "-family", "cycle", "-n", "6",
		"-protocol", "push", "-timing", "sync", "-trials", "2", "-seed", "5",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "trial 1:") {
		t.Fatalf("output missing trial lines:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "informed=6/6") {
		t.Fatalf("cycle trial short of coverage:\n%s", out.String())
	}
}

func TestCoordinatorAttachesPeers(t *testing.T) {
	var addrs []string
	for i := 0; i < 4; i++ {
		node := gossip.NewNode(nil)
		if err := node.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		addrs = append(addrs, node.Addr())
	}
	var out bytes.Buffer
	err := run([]string{
		"-coordinator", "-overlay=false", "-peers", strings.Join(addrs, ","),
		"-family", "complete", "-n", "4", "-trials", "1", "-seed", "9",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "informed=4/4") {
		t.Fatalf("attached trial short of coverage:\n%s", out.String())
	}
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-coordinator", "-peers", "a:1,,b:2", "-family", "complete", "-n", "2"},
		{"-coordinator", "-peers", "a:1,a:1", "-family", "complete", "-n", "2"},
		{"-coordinator", "-peers", "a:1", "-family", "complete", "-n", "4"}, // size mismatch
		{"-coordinator", "-latency", "warp:1ms"},
		{"-coordinator", "-family", "klein-bottle", "-n", "8"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestSourceOutOfRangeFails: a -source outside the graph is an error
// naming it, not a silent trial from vertex 0.
func TestSourceOutOfRangeFails(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"live only", []string{"-overlay=false", "-source", "99"}},
		{"live only, negative", []string{"-overlay=false", "-source", "-1"}},
		{"live only, n", []string{"-overlay=false", "-source", "8"}},
		{"overlay", []string{"-source", "99"}},
	} {
		var out bytes.Buffer
		args := append([]string{"-coordinator", "-family", "complete", "-n", "8", "-trials", "1"}, tc.args...)
		err := run(args, &out)
		if !errors.Is(err, core.ErrBadSource) {
			t.Errorf("%s: err = %v, want core.ErrBadSource", tc.name, err)
		} else if !strings.Contains(err.Error(), "source out of range") {
			t.Errorf("%s: message %q does not name the problem", tc.name, err)
		}
		if strings.Contains(out.String(), "informed=") {
			t.Errorf("%s: a trial ran:\n%s", tc.name, out.String())
		}
	}
}

// syncBuffer lets the node-mode goroutine write while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestNodeModeExitOnShutdown boots a node-mode process loop and tears
// it down through the wire protocol, the lifecycle a remote fleet
// uses.
func TestNodeModeExitOnShutdown(t *testing.T) {
	out := &syncBuffer{}
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-exit-on-shutdown"}, out)
	}()

	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("node never announced its address; output: %q", out.String())
		}
		if text := out.String(); strings.Contains(text, "listening on ") {
			addr = strings.TrimSpace(strings.SplitN(text, "listening on ", 2)[1])
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	env, err := gossip.NewEnvelope(gossip.MethodShutdown, gossip.CoordinatorFrom, gossip.Ack{})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := gossip.Call(addr, env, 2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Err != "" || reply.Method != gossip.MethodShutdown {
		t.Fatalf("SHUTDOWN reply %+v", reply)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("node exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node did not exit after SHUTDOWN")
	}
}

// TestMetricsOutFailureFailsRun: an unwritable -metrics-out fails an
// otherwise clean run (non-zero exit), as it does in rumorsim and
// experiments.
func TestMetricsOutFailureFailsRun(t *testing.T) {
	err := run([]string{
		"-coordinator", "-overlay=false", "-family", "cycle", "-n", "4", "-trials", "1",
		"-metrics-out", filepath.Join(t.TempDir(), "no-such-dir", "m.prom"),
	}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-metrics-out") {
		t.Fatalf("run with an unwritable -metrics-out = %v, want a -metrics-out error", err)
	}
}
