package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"rumor/internal/api"
	"rumor/internal/graph"
	"rumor/internal/service"
	"rumor/internal/stats"
)

// Load generation. The program receives only these cells; every field
// is a pure function of -seed and the coordinates given.

var (
	smallFamilies  = []string{"hypercube", "complete", "cycle", "star"}
	smallProtocols = []string{"push", "pull", "push-pull"}
	bothTimings    = []string{service.TimingSync, service.TimingAsync}
)

// smallJob is job j of the service workloads: jobCells unique cells at
// n=64 sweeping family x protocol x timing, 2 trials each. Engine work
// per cell is microseconds; the four graphs are built once and then
// always hit, so everything else about a job is service overhead.
func smallJob(seed uint64, j, jobCells int) []service.CellSpec {
	cells := make([]service.CellSpec, jobCells)
	for k := range cells {
		cells[k] = service.CellSpec{
			Family:    smallFamilies[k%4],
			N:         64,
			Protocol:  smallProtocols[(k/4)%3],
			Timing:    bothTimings[(k/12)%2],
			Trials:    2,
			GraphSeed: 1,
			TrialSeed: mix(seed, 1, uint64(j), uint64(k)),
		}
	}
	return cells
}

// largeCells is the engine_large_n pair: one sync and one async
// push-pull cell on the same gnp instance (p = 3 ln n / n).
func largeCells(seed uint64, n int) (syncCell, asyncCell service.CellSpec) {
	syncCell = service.CellSpec{
		Family: "gnp", N: n, Protocol: "push-pull", Timing: service.TimingSync,
		Trials: 3, GraphSeed: mix(seed, 2, 0), TrialSeed: mix(seed, 2, 1),
	}
	asyncCell = syncCell
	asyncCell.Timing = service.TimingAsync
	asyncCell.Trials = 2
	asyncCell.TrialSeed = mix(seed, 2, 2)
	return syncCell, asyncCell
}

// shardPass is one coordinator batch: random-regular cells, push-pull,
// sync and async alternating, over 8 graph instances. Each pass has
// trial seeds of its own, so no pass is served from a peer's cache.
func shardPass(seed uint64, pass int, sc scale) []service.CellSpec {
	cells := make([]service.CellSpec, sc.shardCells)
	for k := range cells {
		cells[k] = service.CellSpec{
			Family: "random-regular", N: sc.shardN, Protocol: "push-pull",
			Timing:    bothTimings[k%2],
			Trials:    sc.shardTrials,
			GraphSeed: mix(seed, 3, uint64(k%8)),
			TrialSeed: mix(seed, 4, uint64(pass), uint64(k)),
		}
	}
	return cells
}

// gossipTrial is live trial t: hypercube, push-pull, sync, no loss.
func gossipTrial(seed uint64, t, n int) service.CellSpec {
	return service.CellSpec{
		Family: "hypercube", N: n, Protocol: "push-pull", Timing: service.TimingSync,
		Trials: 1, GraphSeed: 1, TrialSeed: mix(seed, 5, uint64(t)),
	}
}

// rowOf renders a result the way the API streams it.
func rowOf(res *service.CellResult) []byte {
	b, err := api.Marshal(res)
	if err != nil {
		panic(err) // CellResult always marshals
	}
	return b
}

// checkAgainstExecutor recomputes the cells on a fresh in-process
// executor with no result cache and counts rows that differ from got
// by a single byte. got[i] may be nil (a missing row is a wrong row).
func checkAgainstExecutor(cells []service.CellSpec, got []*service.CellResult) (attempted, failed int) {
	ref := &service.Executor{Graphs: service.NewGraphCache(rumordGraphCache)}
	want, err := ref.RunCells(context.Background(), cells)
	if err != nil {
		return len(cells), len(cells)
	}
	for i := range cells {
		attempted++
		if got[i] == nil || !bytes.Equal(rowOf(want[i]), rowOf(got[i])) {
			failed++
		}
	}
	return attempted, failed
}

// kindName is CellSpec's effective kind ("" means the time kind).
func kindName(c service.CellSpec) string {
	if c.Kind == "" {
		return service.KindTime
	}
	return c.Kind
}

// shadowRun replays Executor.Run's own sequence of public calls for
// one cell — Validate, Key, ResultStore.Get, GraphCache.Get or
// BuildGraph, the kind's Run, stats.Summarize, ResultStore.Put — then
// api.EncodeRow and a decode of the row, with a span around each call.
// results and graphs may be nil, as on the executor. It returns the
// encoded row, which must be byte-identical to what Executor.Run
// yields for the cell.
func shadowRun(tr *tracer, op int64, index int, cell service.CellSpec, results service.ResultStore, graphs *service.GraphCache) (*service.CellResult, []byte, error) {
	root := tr.start(spCell, -1, op)
	defer tr.end(root)
	step := func(name string, fn func()) {
		id := tr.start(name, root, op)
		fn()
		tr.end(id)
	}

	var err error
	step(spValidate, func() { err = cell.Validate() })
	if err != nil {
		return nil, nil, err
	}
	var key string
	step(spKey, func() { key = cell.Key() })

	var res *service.CellResult
	if results != nil {
		step(spCacheGet, func() {
			if cached, ok := results.Get(key); ok {
				c := *cached
				res = &c
			}
		})
	}
	if res == nil {
		kind, err := service.KindByName(kindName(cell))
		if err != nil {
			return nil, nil, err
		}
		var g *graph.Graph
		var kr *service.KindResult
		if kind.NeedsGraph {
			step(spGraph, func() {
				if graphs != nil {
					g, err = graphs.Get(cell)
				} else {
					g, err = service.BuildGraph(cell)
				}
			})
			if err != nil {
				return nil, nil, err
			}
		}
		step(spTrials, func() { kr, err = kind.Run(context.Background(), cell, g, 1) })
		if err != nil {
			return nil, nil, err
		}
		var sum stats.Summary
		step(spSummarize, func() { sum = stats.Summarize(kr.Times) })
		res = &service.CellResult{
			Cell: cell, Key: key, Times: kr.Times, Summary: sum,
			Coverage: kr.Coverage, Series: kr.Series, Values: kr.Values,
		}
		if g != nil {
			res.Graph, res.N, res.M = g.Name(), g.NumNodes(), g.NumEdges()
		}
		if results != nil {
			step(spCachePut, func() { results.Put(key, res) })
			c := *res
			res = &c
		}
	}
	res.Index = index

	var buf bytes.Buffer
	step(spEncode, func() { err = api.EncodeRow(&buf, res) })
	if err != nil {
		return nil, nil, err
	}
	row := bytes.TrimRight(buf.Bytes(), "\n")
	step(spDecode, func() {
		var back service.CellResult
		err = json.Unmarshal(row, &back)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("decoding shadow row: %w", err)
	}
	return res, row, nil
}
