package rumor_test

// One sub-benchmark per experiment (internal/experiments holds each
// one's claim and reducer), each regenerating that experiment's
// measurement in quick mode, plus engine micro-benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benches report b.N runs of the full (quick) experiment;
// the micro-benches isolate per-step/per-round engine cost.

import (
	"io"
	"testing"

	"rumor"
	"rumor/internal/experiments"
)

// BenchmarkExperiment has one sub-benchmark per registered experiment
// (BenchmarkExperiment/E1 …), so the list cannot go stale.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o, err := e.Run(experiments.Config{Quick: true, Seed: uint64(i + 1), Out: io.Discard})
				if err != nil {
					b.Fatal(err)
				}
				if o.Verdict == experiments.Failed {
					b.Fatalf("%s FAILED: %s", e.ID, o.Summary)
				}
			}
		})
	}
}

// Engine micro-benchmarks.

func benchGraph(b *testing.B, build func() (*rumor.Graph, error)) *rumor.Graph {
	b.Helper()
	g, err := build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkSyncPushPullHypercube12(b *testing.B) {
	g := benchGraph(b, func() (*rumor.Graph, error) { return rumor.Hypercube(12) })
	rng := rumor.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rumor.RunSync(g, 0, rumor.SyncConfig{Protocol: rumor.PushPull}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAsyncGlobalClockHypercube12(b *testing.B) {
	g := benchGraph(b, func() (*rumor.Graph, error) { return rumor.Hypercube(12) })
	rng := rumor.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rumor.RunAsync(g, 0, rumor.AsyncConfig{Protocol: rumor.PushPull}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAsyncPerNodeHypercube12(b *testing.B) {
	g := benchGraph(b, func() (*rumor.Graph, error) { return rumor.Hypercube(12) })
	rng := rumor.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := rumor.AsyncConfig{Protocol: rumor.PushPull, View: rumor.PerNodeClocks}
		if _, err := rumor.RunAsync(g, 0, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAsyncPerEdgeHypercube10(b *testing.B) {
	g := benchGraph(b, func() (*rumor.Graph, error) { return rumor.Hypercube(10) })
	rng := rumor.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := rumor.AsyncConfig{Protocol: rumor.PushPull, View: rumor.PerEdgeClocks}
		if _, err := rumor.RunAsync(g, 0, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPPXHypercube10(b *testing.B) {
	g := benchGraph(b, func() (*rumor.Graph, error) { return rumor.Hypercube(10) })
	rng := rumor.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rumor.RunPPVariant(g, 0, rumor.PPX, rumor.SyncConfig{}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpperCouplingHypercube8(b *testing.B) {
	g := benchGraph(b, func() (*rumor.Graph, error) { return rumor.Hypercube(8) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rumor.RunUpperCoupling(g, 0, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLowerCouplingHypercube8(b *testing.B) {
	g := benchGraph(b, func() (*rumor.Graph, error) { return rumor.Hypercube(8) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rumor.RunLowerCoupling(g, 0, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphGenGNP(b *testing.B) {
	rng := rumor.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rumor.GNP(10000, 0.001, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphGenPowerLaw(b *testing.B) {
	rng := rumor.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rumor.ChungLuPowerLaw(10000, 2.5, 3, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the literal-semantics reference engine vs the optimized
// engine (the active-boundary scan of core's round stepper). Pull-only
// on a path is the extreme case: the active boundary is O(1) nodes per
// round while the reference engine scans all n every round.
func BenchmarkSyncReferencePullPath(b *testing.B) {
	g := benchGraph(b, func() (*rumor.Graph, error) { return rumor.Path(512) })
	rng := rumor.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rumor.RunSyncReference(g, 0, rumor.SyncConfig{Protocol: rumor.Pull}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSyncOptimizedPullPath(b *testing.B) {
	g := benchGraph(b, func() (*rumor.Graph, error) { return rumor.Path(512) })
	rng := rumor.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rumor.RunSync(g, 0, rumor.SyncConfig{Protocol: rumor.Pull}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpectralGapHypercube10(b *testing.B) {
	g := benchGraph(b, func() (*rumor.Graph, error) { return rumor.Hypercube(10) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rumor.SpectralGapLazy(g, 500, rumor.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: lossy transmission overhead (extension feature).
func BenchmarkSyncLossyHypercube10(b *testing.B) {
	g := benchGraph(b, func() (*rumor.Graph, error) { return rumor.Hypercube(10) })
	rng := rumor.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := rumor.SyncConfig{Protocol: rumor.PushPull, TransmitProb: 0.5}
		if _, err := rumor.RunSync(g, 0, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}
