package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"rumor/client"
	"rumor/internal/service"
	"rumor/internal/shard"
)

// Fixed peer names: ring placement hashes the peer URL.
var shardPeerNames = []string{"http://peer-0.bench", "http://peer-1.bench"}

// shardFanout is shard.Coordinator.RunCells over two loopback peer
// daemons of one worker each: cells of ~16 ms, so compute still matters
// and what the coordinator adds — partition, per-peer jobs and streams,
// merge, ring imbalance — is visible next to it.
type shardFanout struct {
	e     *env
	peers []*daemon
	lb    *loopback
	co    *shard.Coordinator
	pass  int
	// cold skips setUp's warm-up batch (the overhead probe compares
	// against a single daemon that had none either).
	cold bool
	// the first timed passes, checkCells cells in all, kept for the
	// byte-identity check
	keptCells [][]service.CellSpec
	keptRows  [][]*service.CellResult
	passesRun int
	// traced pass
	tr           *tracer
	root         atomic.Int64
	shadowRows   int
	shadowFailed int
}

func newShardFanout(e *env) workload { return &shardFanout{e: e} }

// spanTransport records one span per HTTP exchange with a peer, from
// the request to the end of the response body: the submit POST and the
// per-peer result stream, as the coordinator's SDK clients see them.
type spanTransport struct {
	w    *shardFanout
	next http.RoundTripper
}

type spanBody struct {
	io.ReadCloser
	end func()
}

func (b *spanBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.w.tr
	if tr == nil {
		return t.next.RoundTrip(req)
	}
	name := spSubmit
	if req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/results") {
		name = spPeer
	}
	id := tr.start(name, int(t.w.root.Load()), int64(t.w.pass))
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tr.end(id) }}
	return resp, nil
}

// setUp starts the peers and the coordinator and runs one small batch,
// so the 8 graphs are built and the connections open before timing.
func (w *shardFanout) setUp() error {
	routes := make(map[string]string)
	for _, name := range shardPeerNames {
		d, err := startDaemon(daemonConfig{workers: 1})
		if err != nil {
			return err
		}
		w.peers = append(w.peers, d)
		routes[strings.TrimPrefix(name, "http://")+":80"] = d.addr
	}
	w.lb = newLoopback(routes)
	hc := &http.Client{Transport: &spanTransport{w: w, next: w.lb.tr}}
	var err error
	w.co, err = shard.New(shard.Config{
		Peers:         shardPeerNames,
		ClientOptions: []client.Option{client.WithHTTPClient(hc)},
	})
	if err != nil {
		return err
	}
	if w.cold {
		return nil
	}
	warm := shardPass(w.e.seed, -1, w.e.sc)
	if len(warm) > 32 {
		warm = warm[:32]
	}
	_, err = w.co.RunCells(context.Background(), warm)
	return err
}

// runPass runs the next batch; a batch that comes back short is an error.
func (w *shardFanout) runPass() ([]service.CellSpec, []*service.CellResult, time.Duration, error) {
	cells := shardPass(w.e.seed, w.pass, w.e.sc)
	w.pass++
	start := time.Now()
	res, err := w.co.RunCells(context.Background(), cells)
	took := time.Since(start)
	if err == nil && len(res) != len(cells) {
		err = fmt.Errorf("%d of %d cells came back", len(res), len(cells))
	}
	return cells, res, took, err
}

func (w *shardFanout) measure(d time.Duration) (*sample, error) {
	s := &sample{workUnit: "cells", opUnit: fmt.Sprintf("Coordinator.RunCells of %d cells", w.e.sc.shardCells)}
	for {
		cells, res, took, err := w.runPass()
		if err != nil {
			return nil, fmt.Errorf("shard pass %d: %w", w.pass-1, err)
		}
		w.passesRun++
		if len(w.keptCells)*len(cells) < w.e.sc.checkCells {
			w.keptCells = append(w.keptCells, cells)
			w.keptRows = append(w.keptRows, res)
		}
		s.ops = append(s.ops, took.Seconds())
		s.wall += took.Seconds()
		s.work += float64(len(res))
		if (w.e.sc.maxOps > 0 && len(s.ops) >= w.e.sc.maxOps) || s.wall >= d.Seconds() {
			return s, nil
		}
	}
}

// check: the kept passes byte-identical to an in-process executor's run
// of the same cells, and both peers used. Every pass counted here is
// complete: measure ends the run on one that is not.
func (w *shardFanout) check() (attempted, failed int) {
	attempted = w.passesRun
	for i := range w.keptCells {
		a, f := checkAgainstExecutor(w.keptCells[i], w.keptRows[i])
		attempted += a
		failed += f
	}
	for i, p := range w.peers {
		attempted++
		if p.sched != nil && p.sched.Metrics().CellsComputed == 0 {
			w.e.notef("shard_fanout: peer %d computed nothing", i)
			failed++
		}
	}
	attempted += w.shadowRows
	failed += w.shadowFailed
	return attempted, failed
}

func (w *shardFanout) traced(tr *tracer, d time.Duration) (*tracedSample, error) {
	ts := &tracedSample{}
	w.tr = tr
	for {
		root := tr.start(spJob, -1, int64(w.pass))
		w.root.Store(int64(root))
		_, res, took, err := w.runPass()
		tr.end(root)
		if err != nil {
			w.tr = nil
			return nil, fmt.Errorf("traced shard pass: %w", err)
		}
		ts.wall += took.Seconds()
		ts.work += float64(len(res))
		if w.e.sc.maxOps > 0 || ts.wall >= d.Seconds() {
			break
		}
	}
	w.tr = nil
	// Worker-seconds the peers had per cell while the caller waited.
	_, passTime := tr.selfTimes()
	capacityPerCell := time.Duration(float64(passTime) * float64(len(w.peers)) / ts.work)

	// Executor-side split of the same kind of cell, by shadow replay.
	cells := shardPass(w.e.seed, 1<<20, w.e.sc)
	if n := w.e.sc.checkCells / 4; len(cells) > n {
		cells = cells[:n]
	}
	graphs := service.NewGraphCache(rumordGraphCache)
	want, err := (&service.Executor{Graphs: graphs}).RunCells(context.Background(), cells)
	if err != nil {
		return nil, err
	}
	results := service.NewResultCache(rumordResultCache)
	for k, c := range cells {
		_, row, err := shadowRun(tr, int64(1<<40+k), k, c, results, graphs)
		if err != nil {
			return nil, err
		}
		w.shadowRows++
		if !bytes.Equal(row, rowOf(want[k])) {
			w.shadowFailed++
		}
	}
	self, _ := tr.selfTimes()
	perCell := make(map[string]time.Duration, len(execSpans))
	for _, name := range execSpans {
		perCell[name] = self[name] / time.Duration(len(cells))
	}
	ts.phases = phaseShares(perCell, capacityPerCell, true)
	return ts, nil
}

func (w *shardFanout) tearDown() {
	if w.lb != nil {
		w.lb.close()
		w.lb = nil
	}
	for _, p := range w.peers {
		p.stop()
	}
	w.peers = nil
}
