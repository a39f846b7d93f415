package main

import (
	"bytes"
	"context"
	"runtime"
	"time"

	"rumor/internal/service"
)

// engineLargeN is the large-n regime: one operation is a cold sync
// push-pull cell (graph build + 3 trials + summary) followed by an
// async push-pull cell (2 trials) on the now-cached graph, through
// Executor.Run with the graph LRU on and the result cache off. The CSR
// is several times the L2, so the engines are memory-bound: sync sweeps
// every node per round, async touches uniformly random ones.
type engineLargeN struct {
	e                *env
	syncCell, asCell service.CellSpec
	// per repeat: rows, and the counts that must not vary.
	syncRows, asyncRows [][]byte
	syncUpdates         []int64
	asyncUpdates        []int64
	syncSeconds         []float64
	asyncSeconds        []float64
	shadowRows          int
	shadowFailed        int
}

func newEngineLargeN(e *env) workload {
	w := &engineLargeN{e: e}
	w.syncCell, w.asCell = largeCells(e.seed, e.sc.largeN)
	return w
}

// setUp builds the graph once and drops it: the allocator has then
// grown to the CSR's size before the first timed build.
func (w *engineLargeN) setUp() error {
	g, err := service.BuildGraph(w.syncCell)
	if err != nil {
		return err
	}
	csr := 4 * (2*g.NumEdges() + g.NumNodes() + 1)
	w.e.notef("engine_large_n: %s n=%d m=%d, CSR %.1f MB (L2 and L3 sizes are in the machine line)",
		g.Name(), g.NumNodes(), g.NumEdges(), float64(csr)/1e6)
	g = nil
	runtime.GC()
	return nil
}

func (w *engineLargeN) measure(d time.Duration) (*sample, error) {
	s := &sample{workUnit: "cells", opUnit: "sync cell (cold graph) + async cell (cached graph)"}
	ctx := context.Background()
	for {
		ex := &service.Executor{Graphs: service.NewGraphCache(rumordGraphCache)}
		t0 := time.Now()
		r1, _, err := ex.Run(ctx, 0, w.syncCell)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		u1 := ex.EngineUpdates()
		r2, _, err := ex.Run(ctx, 1, w.asCell)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		w.syncRows = append(w.syncRows, rowOf(r1))
		w.asyncRows = append(w.asyncRows, rowOf(r2))
		w.syncUpdates = append(w.syncUpdates, u1)
		w.asyncUpdates = append(w.asyncUpdates, ex.EngineUpdates()-u1)
		w.syncSeconds = append(w.syncSeconds, t1.Sub(t0).Seconds())
		w.asyncSeconds = append(w.asyncSeconds, t2.Sub(t1).Seconds())
		s.ops = append(s.ops, t2.Sub(t0).Seconds())
		s.wall += t2.Sub(t0).Seconds()
		s.work += 2
		ex = nil
		runtime.GC() // the next repeat's build starts from a collected heap
		if (w.e.sc.maxOps > 0 && len(s.ops) >= w.e.sc.maxOps) || s.wall >= d.Seconds() {
			break
		}
	}
	// The two halves of the operation apart: a change of graph layout
	// that helps one and costs the other cancels in the operation's time.
	s.layer = map[string]float64{
		mSyncCell:  median(w.syncSeconds),
		mAsyncCell: median(w.asyncSeconds),
	}
	w.e.notef("engine_large_n: %s median %.4f, %s median %.4f over %d repeats",
		mSyncCell, s.layer[mSyncCell], mAsyncCell, s.layer[mAsyncCell], len(w.syncSeconds))
	s.exact = map[string]float64{
		"engine.sync_updates":  float64(w.syncUpdates[0]),
		"engine.async_updates": float64(w.asyncUpdates[0]),
	}
	return s, nil
}

// check: every repeat of the same cell gives the same bytes and the
// same engine update counts.
func (w *engineLargeN) check() (attempted, failed int) {
	for i := range w.syncRows {
		attempted += 2
		if !bytes.Equal(w.syncRows[i], w.syncRows[0]) || w.syncUpdates[i] != w.syncUpdates[0] {
			failed++
		}
		if !bytes.Equal(w.asyncRows[i], w.asyncRows[0]) || w.asyncUpdates[i] != w.asyncUpdates[0] {
			failed++
		}
	}
	attempted += w.shadowRows
	failed += w.shadowFailed
	return attempted, failed
}

func (w *engineLargeN) traced(tr *tracer, d time.Duration) (*tracedSample, error) {
	ts := &tracedSample{}
	for op := int64(0); ; op += 2 {
		graphs := service.NewGraphCache(rumordGraphCache)
		start := time.Now()
		_, row1, err := shadowRun(tr, op, 0, w.syncCell, nil, graphs)
		if err != nil {
			return nil, err
		}
		_, row2, err := shadowRun(tr, op+1, 1, w.asCell, nil, graphs)
		if err != nil {
			return nil, err
		}
		ts.wall += time.Since(start).Seconds()
		ts.work += 2
		w.shadowRows += 2
		if !bytes.Equal(row1, w.syncRows[0]) {
			w.shadowFailed++
		}
		if !bytes.Equal(row2, w.asyncRows[0]) {
			w.shadowFailed++
		}
		graphs = nil
		runtime.GC()
		if w.e.sc.maxOps > 0 || ts.wall >= d.Seconds() {
			break
		}
	}
	self, top := tr.selfTimes()
	ts.phases = phaseShares(self, top, false)
	return ts, nil
}

func (w *engineLargeN) tearDown() {
	w.syncRows, w.asyncRows = nil, nil
	runtime.GC()
}
