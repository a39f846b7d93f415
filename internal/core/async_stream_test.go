package core

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rumor/internal/graph"
	"rumor/internal/xrand"
)

var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// streamScenario is one row family of async_stream.golden: a compiled
// asynchronous trial run twice on one caller-threaded generator.
type streamScenario struct {
	name  string
	build func() (*Trial, error)
}

// streamGraph is a 16-node hypercube bridged through node 16 to the
// cycle 17..24, a separate triangle 25..27, and three isolated nodes
// 28..30: ticks of isolated actors draw no neighbor, crashing the bridge
// strands the rumor (a halting schedule tick), and a source in the
// triangle changes the completion target.
func streamGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(31).SetName("stream")
	for v := graph.NodeID(0); v < 16; v++ {
		for bit := graph.NodeID(1); bit < 16; bit <<= 1 {
			if w := v ^ bit; v < w {
				b.AddEdge(v, w)
			}
		}
	}
	b.AddEdge(15, 16).AddEdge(16, 17)
	for v := graph.NodeID(17); v < 24; v++ {
		b.AddEdge(v, v+1)
	}
	b.AddEdge(24, 17)
	b.AddEdge(25, 26).AddEdge(26, 27).AddEdge(25, 27)
	return mustGraph(b.Build())
}

// streamScenarios is the table behind async_stream.golden: every view ×
// protocol × loss × schedule × source-set combination the engine accepts
// on streamGraph, then budget hits inside, at, and past a 64-tick
// boundary, an isolated source, and resampled topologies.
func streamScenarios(t testing.TB) []streamScenario {
	t.Helper()
	g := streamGraph(t)
	crashes := []Crash{{Node: 16, Time: 0.5}, {Node: 3, Time: 1}}
	churn := []ChurnEvent{
		{Node: 5, Time: 0.5, Op: ChurnLeave},
		{Node: 5, Time: 3, Op: ChurnJoin, DropState: true},
		{Node: 16, Time: 1, Op: ChurnLeave},
		{Node: 16, Time: 2.5, Op: ChurnJoin},
		{Node: 0, Time: 1.5, Op: ChurnLeave},
		{Node: 0, Time: 2, Op: ChurnJoin, DropState: true},
	}
	static := func(g *graph.Graph, cfg AsyncConfig, src graph.NodeID) func() (*Trial, error) {
		return func() (*Trial, error) { return NewTrial(graph.NewStatic(g), src, cfg, 0, false) }
	}
	var out []streamScenario
	for _, view := range []AsyncView{GlobalClock, PerNodeClocks, PerEdgeClocks} {
		for _, p := range []Protocol{Push, Pull, PushPull} {
			for _, prob := range []float64{0, 0.7} {
				for _, sched := range []string{"none", "crash", "churn"} {
					for _, extra := range [][]graph.NodeID{nil, {20, 26}} {
						if sched == "churn" && view == PerEdgeClocks {
							continue // rejected at compile time
						}
						cfg := AsyncConfig{Protocol: p, View: view, TransmitProb: prob, ExtraSources: extra}
						switch sched {
						case "crash":
							cfg.Crashes = crashes
						case "churn":
							cfg.Churn = churn
						}
						out = append(out, streamScenario{
							name:  fmt.Sprintf("%v/%v/p=%v/%s/extra=%d", view, p, prob, sched, len(extra)),
							build: static(g, cfg, 0),
						})
					}
				}
			}
		}
	}
	out = append(out, streamScenario{"isolated-source", static(g, AsyncConfig{Protocol: PushPull}, 29)})
	cube := mustGraph(graph.Hypercube(7))
	for _, budget := range []int64{37, 64, 200} {
		out = append(out, streamScenario{
			name:  fmt.Sprintf("budget=%d", budget),
			build: static(cube, AsyncConfig{Protocol: PushPull, MaxSteps: budget}, 0),
		})
	}
	out = append(out, streamScenario{"budget=100/crash",
		static(cube, AsyncConfig{Protocol: Push, View: PerNodeClocks, MaxSteps: 100, Crashes: []Crash{{Node: 9, Time: 0.25}}}, 0)})
	small, ring := mustGraph(graph.Hypercube(5)), mustGraph(graph.Cycle(32))
	resample := func(cfg AsyncConfig) func() (*Trial, error) {
		return func() (*Trial, error) {
			p, err := graph.NewResample(small, 0.75, func(epoch uint64) (*graph.Graph, error) {
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
	out = append(out,
		streamScenario{"resample/global", resample(AsyncConfig{Protocol: PushPull})},
		streamScenario{"resample/per-node/lossy", resample(AsyncConfig{Protocol: Pull, View: PerNodeClocks, TransmitProb: 0.6})},
		streamScenario{"resample/crash", resample(AsyncConfig{Protocol: PushPull, Crashes: []Crash{{Node: 3, Time: 1}, {Node: 30, Time: 0.5}}})},
		streamScenario{"resample/churn", resample(AsyncConfig{Protocol: PushPull, View: PerNodeClocks, Churn: []ChurnEvent{
			{Node: 7, Time: 0.5, Op: ChurnLeave}, {Node: 7, Time: 2, Op: ChurnJoin, DropState: true}, {Node: 12, Time: 1, Op: ChurnLeave},
		}})},
		streamScenario{"resample/budget=50", resample(AsyncConfig{Protocol: Push, MaxSteps: 50})},
	)
	return out
}

// TestAsyncStreamGolden pins, for every scenario shape the one async
// engine runs, the result AND the position of the caller's generator
// after the run: two consecutive runs of one trial on one threaded
// generator, each followed by one Uint64() read off it. The result
// columns say the trial consumed the same draws; the last column says it
// left the generator exactly where a tick-at-a-time engine leaves it,
// which no result golden can see. The file was generated by the
// per-tick engine and must never move.
func TestAsyncStreamGolden(t *testing.T) {
	var buf bytes.Buffer
	for i, sc := range streamScenarios(t) {
		trial, err := sc.build()
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		rng := xrand.New(1000 + uint64(i))
		for run := 0; run < 2; run++ {
			out, err := trial.Run(rng)
			status := "ok"
			switch {
			case errors.Is(err, ErrBudget):
				status = "budget"
			case err != nil:
				t.Fatalf("%s run %d: %v", sc.name, run, err)
			}
			r := out.Async
			h1, h2 := fnv.New64a(), fnv.New64a()
			for v := range r.InformedAt {
				fmt.Fprintf(h1, "%016x", math.Float64bits(r.InformedAt[v]))
				fmt.Fprintf(h2, "%d,", r.Parent[v])
			}
			fmt.Fprintf(&buf, "%s #%d %s time=%016x steps=%d informed=%d at=%016x parent=%016x next=%016x\n",
				sc.name, run, status, math.Float64bits(r.Time), r.Steps, r.NumInformed, h1.Sum64(), h2.Sum64(), rng.Uint64())
		}
	}
	checkStreamGolden(t, "async_stream.golden", buf.Bytes())
}

// checkStreamGolden compares got with testdata/<name> line by line, or
// rewrites the file under -update.
func checkStreamGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range wl {
			if i >= len(gl) || !bytes.Equal(gl[i], wl[i]) {
				var line []byte
				if i < len(gl) {
					line = gl[i]
				}
				t.Fatalf("%s line %d moved:\n got  %s\n want %s", name, i+1, line, wl[i])
			}
		}
		t.Fatalf("%s: %d extra lines", name, len(gl)-len(wl))
	}
}
