package graph

import (
	"errors"
	"math"
	"testing"

	"rumor/internal/xrand"
)

func TestGNPEdgeCount(t *testing.T) {
	rng := xrand.New(1)
	n, p := 500, 0.02
	g, err := GNP(n, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	want := p * float64(n) * float64(n-1) / 2
	got := float64(g.NumEdges())
	sd := math.Sqrt(want * (1 - p))
	if math.Abs(got-want) > 5*sd {
		t.Fatalf("G(%d,%v) has %v edges, want %v +- %v", n, p, got, want, 5*sd)
	}
}

func TestGNPDeterministic(t *testing.T) {
	a, err := GNP(100, 0.05, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GNP(100, 0.05, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("GNP not deterministic for fixed seed")
	}
	a.Edges(func(u, v NodeID) {
		if !b.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) missing from second generation", u, v)
		}
	})
}

func TestGNPExtremes(t *testing.T) {
	rng := xrand.New(2)
	g0, err := GNP(50, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g0.NumEdges() != 0 {
		t.Fatal("G(n,0) has edges")
	}
	g1, err := GNP(50, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != 50*49/2 {
		t.Fatalf("G(n,1) has %d edges", g1.NumEdges())
	}
}

func TestGNPRejectsBadParams(t *testing.T) {
	rng := xrand.New(3)
	for _, tc := range []struct {
		n int
		p float64
	}{{0, 0.5}, {10, -0.1}, {10, 1.1}, {10, math.NaN()}} {
		if _, err := GNP(tc.n, tc.p, rng); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("GNP(%d,%v) accepted", tc.n, tc.p)
		}
	}
}

func TestGNPConnected(t *testing.T) {
	rng := xrand.New(4)
	n := 200
	p := 3 * math.Log(float64(n)) / float64(n)
	g, err := GNPConnected(n, p, rng, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !IsConnected(g) {
		t.Fatal("GNPConnected returned a disconnected graph")
	}
}

func TestGNPConnectedFailsForSparse(t *testing.T) {
	rng := xrand.New(5)
	if _, err := GNPConnected(500, 0.0001, rng, 3); err == nil {
		t.Fatal("expected failure for far-subcritical p")
	}
}

func TestRandomRegular(t *testing.T) {
	rng := xrand.New(6)
	for _, tc := range []struct{ n, d int }{{100, 3}, {64, 4}, {51, 6}, {20, 10}} {
		g, err := RandomRegular(tc.n, tc.d, rng)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		checkInvariants(t, g)
		if d, ok := g.Regularity(); !ok || d != int32(tc.d) {
			t.Fatalf("RandomRegular(%d,%d) regularity (%d, %v)", tc.n, tc.d, d, ok)
		}
	}
}

func TestRandomRegularUsuallyConnected(t *testing.T) {
	// Random 3-regular graphs are connected whp; require most seeds work.
	connected := 0
	for seed := uint64(0); seed < 10; seed++ {
		g, err := RandomRegular(200, 3, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if IsConnected(g) {
			connected++
		}
	}
	if connected < 8 {
		t.Fatalf("only %d/10 random 3-regular graphs connected", connected)
	}
}

func TestRandomRegularRejectsBadParams(t *testing.T) {
	rng := xrand.New(7)
	for _, tc := range []struct{ n, d int }{{5, 3}, {10, 0}, {10, 10}, {1, 1}} {
		if _, err := RandomRegular(tc.n, tc.d, rng); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("RandomRegular(%d,%d) accepted", tc.n, tc.d)
		}
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	a, _ := RandomRegular(60, 3, xrand.New(11))
	b, _ := RandomRegular(60, 3, xrand.New(11))
	same := true
	a.Edges(func(u, v NodeID) {
		if !b.HasEdge(u, v) {
			same = false
		}
	})
	if !same || a.NumEdges() != b.NumEdges() {
		t.Fatal("RandomRegular not deterministic for fixed seed")
	}
}

func TestChungLuExpectedDegrees(t *testing.T) {
	rng := xrand.New(11)
	n := 2000
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 10
	}
	g, err := ChungLu(weights, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	stats := Degrees(g)
	// All weights equal 10 => expected degree ~10 (minus the tiny
	// self-pair correction).
	if math.Abs(stats.Mean-10) > 0.5 {
		t.Fatalf("ChungLu mean degree = %v, want ~10", stats.Mean)
	}
}

func TestChungLuHubWeight(t *testing.T) {
	rng := xrand.New(12)
	n := 500
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 2
	}
	weights[0] = 300 // hub
	g, err := ChungLu(weights, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.Degree(0) < 100 {
		t.Fatalf("hub degree = %d, expected large", g.Degree(0))
	}
}

func TestChungLuRejectsBadWeights(t *testing.T) {
	rng := xrand.New(13)
	if _, err := ChungLu([]float64{1}, rng); !errors.Is(err, ErrInvalidParam) {
		t.Error("single weight accepted")
	}
	if _, err := ChungLu([]float64{1, -2}, rng); !errors.Is(err, ErrInvalidParam) {
		t.Error("negative weight accepted")
	}
	if _, err := ChungLu([]float64{0, 0}, rng); !errors.Is(err, ErrInvalidParam) {
		t.Error("zero total weight accepted")
	}
}

func TestPowerLawWeights(t *testing.T) {
	w, err := PowerLawWeights(1000, 2.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 1000 {
		t.Fatalf("got %d weights", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1] {
			t.Fatal("weights not nonincreasing")
		}
	}
	if w[len(w)-1] < 3-1e-9 {
		t.Fatalf("min weight %v below minDeg", w[len(w)-1])
	}
	if _, err := PowerLawWeights(10, 2.0, 1); !errors.Is(err, ErrInvalidParam) {
		t.Error("beta=2 accepted")
	}
}

func TestChungLuPowerLaw(t *testing.T) {
	rng := xrand.New(14)
	g, err := ChungLuPowerLaw(3000, 2.5, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	stats := Degrees(g)
	// Power-law graphs have max degree far above the mean.
	if float64(stats.Max) < 5*stats.Mean {
		t.Fatalf("power-law degrees look flat: %v", stats)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	rng := xrand.New(15)
	n, m := 2000, 3
	g, err := PreferentialAttachment(n, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if !IsConnected(g) {
		t.Fatal("preferential attachment graph disconnected")
	}
	wantEdges := m*(m+1)/2 + (n-m-1)*m
	if g.NumEdges() != wantEdges {
		t.Fatalf("PA edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	stats := Degrees(g)
	if float64(stats.Max) < 4*stats.Mean {
		t.Fatalf("PA hub structure missing: %v", stats)
	}
	if stats.Min < int32(m) {
		t.Fatalf("PA min degree %d < m", stats.Min)
	}
}

func TestPreferentialAttachmentRejectsBadParams(t *testing.T) {
	rng := xrand.New(16)
	for _, tc := range []struct{ n, m int }{{3, 2}, {10, 0}} {
		if _, err := PreferentialAttachment(tc.n, tc.m, rng); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("PreferentialAttachment(%d,%d) accepted", tc.n, tc.m)
		}
	}
}

func TestPreferentialAttachmentDeterministic(t *testing.T) {
	a, _ := PreferentialAttachment(300, 2, xrand.New(77))
	b, _ := PreferentialAttachment(300, 2, xrand.New(77))
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("PA not deterministic")
	}
	a.Edges(func(u, v NodeID) {
		if !b.HasEdge(u, v) {
			t.Fatalf("PA edge (%d,%d) differs across runs", u, v)
		}
	})
}
