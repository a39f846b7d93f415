package core

import (
	"fmt"
	"math"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// Benchmarks report node-updates/sec — a node update is one simulated
// contact decision (one batched draw consumed), the unit the bench/
// workloads' core.*_updates_per_s metrics track.

// benchTrial runs one trial per iteration through Trial.Run, the path
// every cell takes, and reports updates/sec (Outcome.Work) and, for a
// synchronous process, rounds/op.
func benchTrial[C SyncConfig | AsyncConfig](b *testing.B, g *graph.Graph, cfg C) {
	root := xrand.New(1)
	trial, err := NewTrial(graph.NewStatic(g), 0, cfg, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	var work int64
	var rounds float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := trial.Run(root.Child(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		work += out.Work()
		if out.Sync != nil {
			rounds += out.Time()
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(work)/secs, "updates/sec")
		if _, sync := any(cfg).(SyncConfig); sync {
			b.ReportMetric(rounds/float64(b.N), "rounds/op")
		}
	}
}

func BenchmarkSyncPushPullHypercube14(b *testing.B) {
	benchTrial(b, mustGraph(graph.Hypercube(14)), SyncConfig{Protocol: PushPull})
}

func BenchmarkSyncPushComplete4096(b *testing.B) {
	benchTrial(b, mustGraph(graph.Complete(4096)), SyncConfig{Protocol: Push})
}

func BenchmarkSyncPushPullGNP(b *testing.B) {
	g, err := graph.GNPConnected(1<<13, 0.002, xrand.New(9), 50)
	if err != nil {
		b.Fatal(err)
	}
	benchTrial(b, g, SyncConfig{Protocol: PushPull})
}

// largeGNP is the bench/ engine_large_n workload's graph (CSR ~38 MB,
// many times the L2), where every neighbor lookup misses cache.
func largeGNP(b *testing.B) *graph.Graph {
	const n = 250_000
	g, err := graph.GNPConnected(n, 3*math.Log(n)/n, xrand.New(9), 50)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkSyncPushPullGNPLarge and BenchmarkAsyncPushPullGNPLarge are
// the large-n cliff as `go test -bench` lines, one per engine.
func BenchmarkSyncPushPullGNPLarge(b *testing.B) {
	benchTrial(b, largeGNP(b), SyncConfig{Protocol: PushPull})
}

func BenchmarkAsyncPushPullGNPLarge(b *testing.B) {
	benchTrial(b, largeGNP(b), AsyncConfig{Protocol: PushPull})
}

// BenchmarkEngineScaling is cliff A as one curve: push-pull from node 0
// on G(n, 20/n) for n = 2^10 … 2^20, one sub-benchmark per engine, each
// reporting updates/sec and the graph's CSR bytes (8-byte offsets, 4-byte
// adjacency entries), so a row can be read against the host's cache
// sizes. Each graph is built once per n, outside every timer.
func BenchmarkEngineScaling(b *testing.B) {
	for lg := 10; lg <= 20; lg++ {
		n := 1 << lg
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, err := graph.GNPConnected(n, 20/float64(n), xrand.New(9), 50)
			if err != nil {
				b.Fatal(err)
			}
			csr := float64(8*(g.NumNodes()+1) + 4*2*g.NumEdges())
			b.Run("sync", func(b *testing.B) {
				benchTrial(b, g, SyncConfig{Protocol: PushPull})
				b.ReportMetric(csr, "csr-bytes")
			})
			b.Run("async", func(b *testing.B) {
				benchTrial(b, g, AsyncConfig{Protocol: PushPull})
				b.ReportMetric(csr, "csr-bytes")
			})
		})
	}
}

// BenchmarkAsyncPushPullIsolated is async push-pull from node 0 under
// the global view on G(2^14, 0.5 ln n / n), which has about √n = 128
// isolated nodes: the row on which the async block's fallback for a
// degree-0 actor is judged. The run ends when node 0's component is
// informed.
func BenchmarkAsyncPushPullIsolated(b *testing.B) {
	const n = 1 << 14
	g, err := graph.GNP(n, 0.5*math.Log(n)/n, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	isolated := 0
	for v := range graph.NodeID(n) {
		if g.Degree(v) == 0 {
			isolated++
		}
	}
	if reach := graph.Reachable(g, []graph.NodeID{0}); isolated == 0 || reach < n/2 {
		b.Fatalf("%d isolated nodes, %d reachable from node 0: the row needs isolated nodes and a source in the giant component", isolated, reach)
	}
	benchTrial(b, g, AsyncConfig{Protocol: PushPull})
	b.ReportMetric(float64(isolated), "isolated")
}

func BenchmarkAsyncGlobalHypercube14(b *testing.B) {
	benchTrial(b, mustGraph(graph.Hypercube(14)), AsyncConfig{Protocol: PushPull})
}

func BenchmarkAsyncPerEdgeHypercube14(b *testing.B) {
	benchTrial(b, mustGraph(graph.Hypercube(14)), AsyncConfig{Protocol: PushPull, View: PerEdgeClocks})
}

func BenchmarkReferenceSyncHypercube10(b *testing.B) {
	g := mustGraph(graph.Hypercube(10))
	var updates int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RunSyncReference(g, 0, SyncConfig{Protocol: PushPull}, xrand.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		updates += r.Updates
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(updates)/secs, "updates/sec")
	}
}
