package rumor_test

// One benchmark per experiment (E1–E15; internal/experiments holds each
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

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		o, err := e.Run(experiments.Config{Quick: true, Seed: uint64(i + 1), Out: io.Discard})
		if err != nil {
			b.Fatal(err)
		}
		if o.Verdict == experiments.Failed {
			b.Fatalf("%s FAILED: %s", id, o.Summary)
		}
	}
}

func BenchmarkE01Star(b *testing.B)                { benchExperiment(b, "E1") }
func BenchmarkE02Theorem1(b *testing.B)            { benchExperiment(b, "E2") }
func BenchmarkE03Theorem2(b *testing.B)            { benchExperiment(b, "E3") }
func BenchmarkE04Corollary3(b *testing.B)          { benchExperiment(b, "E4") }
func BenchmarkE05PushVsPP(b *testing.B)            { benchExperiment(b, "E5") }
func BenchmarkE06SyncPushVsAsyncPush(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE07CouplingLadder(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE08BlockCoupling(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE09SocialNetworks(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10AsyncViews(b *testing.B)          { benchExperiment(b, "E10") }
func BenchmarkE11DiamondChain(b *testing.B)        { benchExperiment(b, "E11") }
func BenchmarkE12Lemma8(b *testing.B)              { benchExperiment(b, "E12") }
func BenchmarkE13EngineThroughput(b *testing.B)    { benchExperiment(b, "E13") }
func BenchmarkE14ExpansionBounds(b *testing.B)     { benchExperiment(b, "E14") }
func BenchmarkE15Quasirandom(b *testing.B)         { benchExperiment(b, "E15") }

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
