package rumor_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"rumor"
)

// The facade tests exercise the library exactly as an external user
// would: through the public API only.

func TestQuickstartFlow(t *testing.T) {
	g, err := rumor.Hypercube(7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rumor.NewRNG(42)
	sync, err := rumor.RunSync(g, 0, rumor.SyncConfig{Protocol: rumor.PushPull}, rng)
	if err != nil {
		t.Fatal(err)
	}
	async, err := rumor.RunAsync(g, 0, rumor.AsyncConfig{Protocol: rumor.PushPull}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !sync.Complete || !async.Complete {
		t.Fatal("spreading incomplete on connected hypercube")
	}
	if sync.Rounds < 7 {
		t.Fatalf("sync rounds %d below diameter", sync.Rounds)
	}
}

func TestBuilderFacade(t *testing.T) {
	g, err := rumor.NewBuilder(3).AddEdge(0, 1).AddEdge(1, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatal("builder facade broken")
	}
	if !rumor.IsConnected(g) {
		t.Fatal("connectivity facade broken")
	}
}

func TestMeasureAndStatsFacade(t *testing.T) {
	g, err := rumor.Complete(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rumor.MeasureSync(g, 0, rumor.PushPull, 40, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := rumor.Summarize(m.Times)
	if s.N != 40 || s.Mean <= 0 {
		t.Fatalf("summary %+v", s)
	}
	q := rumor.Quantile(m.Times, 0.9)
	if q < s.Median {
		t.Fatal("q90 below median")
	}
	if hp := rumor.HighProbabilityTime(m.Times, 64); hp < q {
		t.Fatal("T_{1/n} proxy below q90")
	}
}

// parentRecorder is a plain Observer: who informed each node.
type parentRecorder map[rumor.NodeID]rumor.NodeID

func (p parentRecorder) OnInformed(_ float64, v, from rumor.NodeID) { p[v] = from }

func TestTraceFacade(t *testing.T) {
	g, err := rumor.Star(32)
	if err != nil {
		t.Fatal(err)
	}
	parent := parentRecorder{}
	if _, err := rumor.RunSync(g, 1, rumor.SyncConfig{Protocol: rumor.PushPull, Observer: parent}, rumor.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if len(parent) != g.NumNodes() {
		t.Fatalf("observer saw %d informing events, want one per node (%d)", len(parent), g.NumNodes())
	}
	if from := parent[1]; from != -1 {
		t.Fatalf("source 1 announced with parent %d, want -1 (nobody)", from)
	}
	// The center (node 0) must lie on every other leaf's rumor path: the
	// source tells it, and it tells everyone else.
	if parent[0] != 1 || parent[5] != 0 {
		t.Fatalf("rumor path to leaf 5 is %d <- %d <- ..., want 5 <- 0 <- 1", parent[5], parent[0])
	}
}

func TestCouplingFacade(t *testing.T) {
	g, err := rumor.Complete(32)
	if err != nil {
		t.Fatal(err)
	}
	up, err := rumor.RunUpperCoupling(g, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if up.PPXTotal < 1 || up.AsyncTotal <= 0 {
		t.Fatalf("upper coupling degenerate: %+v", up)
	}
	low, err := rumor.RunLowerCoupling(g, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !low.SubsetInvariantHeld || !low.SequentialParallelAgreed {
		t.Fatal("lower coupling invariants violated")
	}
}

func TestSpreadingTimeHelpers(t *testing.T) {
	g, err := rumor.Complete(32)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := rumor.SyncSpreadingTime(g, 0, rumor.PushPull, rumor.NewRNG(3))
	if err != nil || rounds < 1 {
		t.Fatalf("sync helper: %d, %v", rounds, err)
	}
	tm, err := rumor.AsyncSpreadingTime(g, 0, rumor.PushPull, rumor.NewRNG(3))
	if err != nil || tm <= 0 {
		t.Fatalf("async helper: %v, %v", tm, err)
	}
}

func TestPPVariantFacade(t *testing.T) {
	g, err := rumor.Hypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rumor.RunPPVariant(g, 0, rumor.PPX, rumor.SyncConfig{}, rumor.NewRNG(4))
	if err != nil || !res.Complete {
		t.Fatalf("ppx facade: %v", err)
	}
	m, err := rumor.MeasurePPVariant(g, 0, rumor.PPY, 10, 1, 0)
	if err != nil || len(m.Times) != 10 {
		t.Fatalf("ppy measure facade: %v", err)
	}
}

func TestGraphFamiliesFacade(t *testing.T) {
	fams := rumor.StandardFamilies()
	if len(fams) < 10 {
		t.Fatalf("only %d standard families", len(fams))
	}
	f, err := rumor.FamilyByName("diamond")
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.Build(500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rumor.IsConnected(g) {
		t.Fatal("diamond family instance disconnected")
	}
}

func TestEdgeListFacade(t *testing.T) {
	g, err := rumor.Cycle(10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rumor.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := rumor.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != 10 {
		t.Fatal("edge list round trip lost edges")
	}
}

func TestKSAndFitFacade(t *testing.T) {
	rng := rumor.NewRNG(9)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Exp(1)
		ys[i] = rng.Exp(1)
	}
	if ks := rumor.KolmogorovSmirnov(xs, ys); ks.PValue < 0.001 {
		t.Fatalf("KS rejected identical: %v", ks)
	}
	fit, err := rumor.FitPowerLaw([]float64{1, 2, 4}, []float64{2, 4, 8})
	if err != nil || math.Abs(fit.Alpha-1) > 1e-9 {
		t.Fatalf("fit facade: %+v, %v", fit, err)
	}
}

func ExampleRunSync() {
	g, _ := rumor.Star(8)
	res, _ := rumor.RunSync(g, 0, rumor.SyncConfig{Protocol: rumor.Pull}, rumor.NewRNG(1))
	// From the star center, every leaf pulls in the first round.
	fmt.Println(res.Rounds, res.Complete)
	// Output: 1 true
}
