package core

import (
	"os"
	"testing"
	"time"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// TestLargeNSyncCell builds a 10^7-node G(n,p) graph with the streamed
// CSR builder and runs one synchronous push-pull cell end to end. Gated
// behind RUMOR_LARGE_N=1 (takes tens of seconds and ~2GB); run with -v
// for the build/run seconds and updates/sec. The benchmark's
// engine_large_n workload runs the same shape at a smaller n.
func TestLargeNSyncCell(t *testing.T) {
	if os.Getenv("RUMOR_LARGE_N") == "" {
		t.Skip("set RUMOR_LARGE_N=1 to run the 10^7-node cell")
	}
	const n = 10_000_000
	p := 20.0 / n // mean degree 20 > log n: connected whp
	start := time.Now()
	g, err := graph.GNP(n, p, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	buildDur := time.Since(start)
	t.Logf("built %v: n=%d m=%d in %v", g, g.NumNodes(), g.NumEdges(), buildDur)

	start = time.Now()
	res, err := RunSync(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	runDur := time.Since(start)
	t.Logf("sync push-pull: rounds=%d informed=%d/%d updates=%d in %v (%.0f updates/sec)",
		res.Rounds, res.NumInformed, n, res.Updates, runDur,
		float64(res.Updates)/runDur.Seconds())
	if res.NumInformed < n/2 {
		t.Fatalf("spread stalled: %d of %d informed", res.NumInformed, n)
	}
}
