package rumor_test

import (
	"math"
	"testing"

	"rumor"
)

// Facade tests for the extension APIs: steppers, curves, crashes,
// multi-source, reference engine, spectral toolkit.

func TestStepperFacade(t *testing.T) {
	g, err := rumor.Complete(64)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := rumor.NewSyncStepper(g, 0, rumor.SyncConfig{Protocol: rumor.PushPull}, rumor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for ss.Step() {
		rounds++
	}
	if !ss.Finished() || ss.NumInformed() != 64 || rounds != ss.Round() {
		t.Fatalf("sync stepper: finished=%v informed=%d rounds=%d/%d",
			ss.Finished(), ss.NumInformed(), rounds, ss.Round())
	}
	as, err := rumor.NewAsyncStepper(g, 0, rumor.AsyncConfig{Protocol: rumor.PushPull}, rumor.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	for as.Step() {
	}
	if as.NumInformed() != 64 || as.Time() <= 0 {
		t.Fatalf("async stepper: informed=%d time=%v", as.NumInformed(), as.Time())
	}
}

func TestCurveFacade(t *testing.T) {
	g, err := rumor.Complete(50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rumor.RunAsync(g, 0, rumor.AsyncConfig{Protocol: rumor.PushPull}, rumor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Curve()
	if got := c.FractionAt(res.Time); math.Abs(got-1) > 1e-12 {
		t.Fatalf("curve end fraction %v", got)
	}
}

func TestCrashFacade(t *testing.T) {
	g, err := rumor.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rumor.RunAsync(g, 0, rumor.AsyncConfig{
		Protocol: rumor.PushPull,
		Crashes:  []rumor.Crash{{Node: 2, Time: 0}},
	}, rumor.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumInformed > 2 {
		t.Fatalf("crash not respected through facade: %d informed", res.NumInformed)
	}
}

func TestMultiSourceFacade(t *testing.T) {
	g, err := rumor.Path(10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rumor.RunSync(g, 0, rumor.SyncConfig{
		Protocol:     rumor.PushPull,
		ExtraSources: []rumor.NodeID{9},
	}, rumor.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.InformedAt[9] != 0 {
		t.Fatal("extra source not at round 0 through facade")
	}
}

func TestReferenceEngineFacade(t *testing.T) {
	g, err := rumor.Cycle(16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rumor.RunSyncReference(g, 0, rumor.SyncConfig{Protocol: rumor.PushPull}, rumor.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("reference engine incomplete on cycle")
	}
}

func TestSpectralFacade(t *testing.T) {
	g, err := rumor.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := rumor.SpectralGapLazy(g, 1000, rumor.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gap-0.25) > 1e-6 { // Q_4: lazy gap = 1/d = 1/4
		t.Fatalf("Q_4 gap = %v, want 0.25", gap)
	}
	phi, err := rumor.ConductanceExact(g)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := rumor.CheegerBounds(gap)
	if phi < lo-1e-9 || phi > hi+1e-9 {
		t.Fatalf("Φ=%v outside Cheeger range [%v, %v]", phi, lo, hi)
	}
	// Q_4's exact conductance: bisect along one dimension: cut 16 edges?
	// n=16, d=4: cutting one dimension: 8 edges cross, vol(S) = 8*4 = 32:
	// Φ = 8/32 = 0.25.
	if math.Abs(phi-0.25) > 1e-12 {
		t.Fatalf("Q_4 conductance = %v, want 0.25", phi)
	}
}
