package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

// syncStreamScenarios is the table behind sync_stream.golden: every round
// body × protocol × loss combination on a graph where some uninformed
// node never gets an informed neighbour (streamGraph is disconnected) and
// on two where every one does within a few rounds (hypercube-128, and
// complete-64 from the first), then the source sets, schedules and
// topologies that move the informed set or the graph under the boundary.
func syncStreamScenarios(t testing.TB) []streamScenario {
	t.Helper()
	stream := streamGraph(t)
	cube := mustGraph(graph.Hypercube(7))
	full := mustGraph(graph.Complete(64))
	graphs := []*graph.Graph{stream, cube, full}
	compile := func(g *graph.Graph, src graph.NodeID, cfg SyncConfig, variant PPVariant, quasi bool) func() (*Trial, error) {
		return func() (*Trial, error) { return NewTrial(graph.NewStatic(g), src, cfg, variant, quasi) }
	}
	var out []streamScenario
	add := func(name string, build func() (*Trial, error)) {
		out = append(out, streamScenario{name, build})
	}
	for _, g := range graphs {
		for _, p := range []Protocol{Push, Pull, PushPull} {
			for _, prob := range []float64{0, 0.7} {
				cfg := SyncConfig{Protocol: p, TransmitProb: prob}
				add(fmt.Sprintf("%s/%v/p=%v", g.Name(), p, prob), compile(g, 0, cfg, 0, false))
				add(fmt.Sprintf("%s/quasirandom/%v/p=%v", g.Name(), p, prob), compile(g, 0, cfg, 0, true))
			}
		}
		for _, variant := range []PPVariant{PPX, PPY} {
			for _, prob := range []float64{0, 0.7} {
				add(fmt.Sprintf("%s/%v/p=%v", g.Name(), variant, prob),
					compile(g, 0, SyncConfig{TransmitProb: prob}, variant, false))
			}
		}
	}
	for _, p := range []Protocol{Push, Pull, PushPull} {
		add(fmt.Sprintf("stream/%v/multi-source", p), compile(stream, 0, SyncConfig{Protocol: p, ExtraSources: []graph.NodeID{20, 26}}, 0, false))
		add(fmt.Sprintf("stream/%v/triangle-source", p), compile(stream, 26, SyncConfig{Protocol: p}, 0, false))
		add(fmt.Sprintf("stream/%v/isolated-source", p), compile(stream, 29, SyncConfig{Protocol: p}, 0, false))
		add(fmt.Sprintf("stream/%v/bridge-crash", p), compile(stream, 0, SyncConfig{Protocol: p,
			Crashes: []Crash{{Node: 16, Time: 2}, {Node: 3, Time: 3}}}, 0, false))
		add(fmt.Sprintf("stream/%v/late-bridge-crash", p), compile(stream, 0, SyncConfig{Protocol: p, ExtraSources: []graph.NodeID{26},
			Crashes: []Crash{{Node: 16, Time: 9}}}, 0, false))
		add(fmt.Sprintf("stream/%v/churn", p), compile(stream, 0, SyncConfig{Protocol: p, Churn: []ChurnEvent{
			{Node: 5, Time: 1, Op: ChurnLeave},
			{Node: 5, Time: 6, Op: ChurnJoin, DropState: true},
			{Node: 16, Time: 2, Op: ChurnLeave},
			{Node: 16, Time: 5, Op: ChurnJoin},
			{Node: 0, Time: 3, Op: ChurnLeave},
			{Node: 0, Time: 4, Op: ChurnJoin, DropState: true},
		}}, 0, false))
		// The source forgets the rumor once every uninformed node already
		// has an informed neighbour: round 1 on the complete graph, a few
		// rounds in on the hypercube (lossy, so the run is still going).
		add(fmt.Sprintf("complete/%v/amnesiac-source", p), compile(full, 0, SyncConfig{Protocol: p, TransmitProb: 0.7, Churn: []ChurnEvent{
			{Node: 0, Time: 2, Op: ChurnLeave},
			{Node: 0, Time: 3, Op: ChurnJoin, DropState: true},
			{Node: 9, Time: 3, Op: ChurnLeave},
			{Node: 9, Time: 5, Op: ChurnJoin, DropState: true},
		}}, 0, false))
		add(fmt.Sprintf("hypercube/%v/amnesiac-source", p), compile(cube, 0, SyncConfig{Protocol: p, TransmitProb: 0.7, Churn: []ChurnEvent{
			{Node: 0, Time: 7, Op: ChurnLeave},
			{Node: 0, Time: 9, Op: ChurnJoin, DropState: true},
			{Node: 1, Time: 8, Op: ChurnLeave},
			{Node: 1, Time: 10, Op: ChurnJoin, DropState: true},
			{Node: 127, Time: 4, Op: ChurnLeave},
		}, ExtraSources: []graph.NodeID{64}}, 0, false))
	}
	// A lone informed leaf forgets: nobody is left informed and its
	// neighbour drops back off the boundary's reach.
	star := mustGraph(graph.Star(8))
	add("star/pull/amnesiac-leaf", compile(star, 1, SyncConfig{Protocol: Pull, Churn: []ChurnEvent{
		{Node: 1, Time: 1, Op: ChurnLeave}, {Node: 1, Time: 2, Op: ChurnJoin, DropState: true},
	}}, 0, false))
	add("hypercube/push/budget=4", compile(cube, 0, SyncConfig{Protocol: Push, MaxRounds: 4}, 0, false))
	add("hypercube/push-pull/budget=3", compile(cube, 0, SyncConfig{Protocol: PushPull, MaxRounds: 3}, 0, false))

	small, ring := mustGraph(graph.Hypercube(5)), mustGraph(graph.Cycle(32))
	resample := func(cfg SyncConfig) func() (*Trial, error) {
		return func() (*Trial, error) {
			p, err := graph.NewResample(small, 2, func(epoch uint64) (*graph.Graph, error) {
				if epoch%2 == 1 {
					return ring, nil
				}
				return small, nil
			})
			if err != nil {
				return nil, err
			}
			return NewTrial(p, 0, cfg, 0, false)
		}
	}
	perturb := func(cfg SyncConfig) func() (*Trial, error) {
		return func() (*Trial, error) {
			p, err := graph.NewPerturb(ring, 1, 0.3, 77)
			if err != nil {
				return nil, err
			}
			return NewTrial(p, 0, cfg, 0, false)
		}
	}
	leaves := []ChurnEvent{
		{Node: 30, Time: 1, Op: ChurnLeave}, // for good, never informed
		{Node: 7, Time: 1, Op: ChurnLeave},
		{Node: 7, Time: 4, Op: ChurnJoin, DropState: true},
		{Node: 0, Time: 3, Op: ChurnLeave},
		{Node: 0, Time: 5, Op: ChurnJoin, DropState: true},
	}
	for _, p := range []Protocol{Push, Pull, PushPull} {
		add(fmt.Sprintf("resample/%v", p), resample(SyncConfig{Protocol: p}))
		add(fmt.Sprintf("resample/%v/lossy", p), resample(SyncConfig{Protocol: p, TransmitProb: 0.6}))
		add(fmt.Sprintf("resample/%v/leave", p), resample(SyncConfig{Protocol: p, Churn: leaves}))
		add(fmt.Sprintf("resample/%v/crash", p), resample(SyncConfig{Protocol: p, Crashes: []Crash{{Node: 30, Time: 1}, {Node: 3, Time: 2}}}))
		add(fmt.Sprintf("perturb/%v", p), perturb(SyncConfig{Protocol: p, ExtraSources: []graph.NodeID{16}}))
		add(fmt.Sprintf("perturb/%v/leave", p), perturb(SyncConfig{Protocol: p, TransmitProb: 0.8, Churn: leaves}))
	}
	add("resample/push/budget=3", resample(SyncConfig{Protocol: Push, MaxRounds: 3}))
	return out
}

// TestSyncStreamGolden is TestAsyncStreamGolden for the synchronous
// engine: two consecutive runs of one trial on one threaded generator,
// pinning the result, the work count and where the generator is left.
// The boundary list's order decides which draw each pulling node gets,
// so a change to boundary upkeep that moved anything would move these
// rows. The file was generated before that upkeep was reduced and must
// never move.
func TestSyncStreamGolden(t *testing.T) {
	var buf bytes.Buffer
	for i, sc := range syncStreamScenarios(t) {
		trial, err := sc.build()
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		rng := xrand.New(2000 + uint64(i))
		for run := 0; run < 2; run++ {
			out, err := trial.Run(rng)
			status := "ok"
			switch {
			case errors.Is(err, ErrBudget):
				status = "budget"
			case err != nil:
				t.Fatalf("%s run %d: %v", sc.name, run, err)
			}
			r := out.Sync
			h1, h2 := fnv.New64a(), fnv.New64a()
			for v := range r.InformedAt {
				fmt.Fprintf(h1, "%d,", r.InformedAt[v])
				fmt.Fprintf(h2, "%d,", r.Parent[v])
			}
			fmt.Fprintf(&buf, "%s #%d %s rounds=%d updates=%d informed=%d at=%016x parent=%016x next=%016x\n",
				sc.name, run, status, r.Rounds, r.Updates, r.NumInformed, h1.Sum64(), h2.Sum64(), rng.Uint64())
		}
	}
	checkStreamGolden(t, "sync_stream.golden", buf.Bytes())
}
