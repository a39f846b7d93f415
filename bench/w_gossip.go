package main

import (
	"fmt"
	"math"
	"time"

	"rumor/internal/gossip"
	"rumor/internal/obs"
)

// gossipLiveSync runs sync push-pull trials on a self-hosted live
// cluster: every gossip message is one TCP dial and one JSON frame
// (gossip.Call), every round a coordinator barrier. Sync only: async
// trials are paced by TimeUnit, so their wall time measures the clock.
type gossipLiveSync struct {
	e       *env
	reg     *obs.Registry
	cluster *gossip.Cluster
	trial   int
	results []*gossip.TrialResult
	bad     int // trials that errored
}

func newGossipLiveSync(e *env) workload { return &gossipLiveSync{e: e} }

// setUp starts the nodes, checks they answer, and runs a few trials so
// the listeners' accept loops and the heap are warm.
func (w *gossipLiveSync) setUp() error {
	w.reg = obs.NewRegistry()
	var err error
	if w.cluster, err = gossip.NewSelfHost(w.e.sc.gossipN, gossip.NewMetrics(w.reg)); err != nil {
		return err
	}
	if err := w.cluster.Ping(); err != nil {
		return err
	}
	for i := 0; i < w.e.sc.gossipWarmup; i++ {
		if _, err := w.cluster.RunTrial(gossip.TrialSpec{Cell: gossipTrial(w.e.seed, -1-i, w.e.sc.gossipN)}); err != nil {
			return err
		}
	}
	return nil
}

// loop runs trials until d of trial time has passed. Work is messages,
// the wall is the summed TrialResult.Wall (injection to final report),
// and one operation is a round: Wall/Rounds per trial. A same-seed
// trial takes 6, 7 or 8 rounds from run to run, so per-trial time is
// not fixed work; both metrics are normalised by the work done.
func (w *gossipLiveSync) loop(d time.Duration, tr *tracer) (*sample, error) {
	s := &sample{workUnit: "messages", opUnit: "sync round (trial Wall / Rounds)"}
	maxTrials := w.e.sc.maxOps * 3
	for n := 0; ; n++ {
		spec := gossip.TrialSpec{Cell: gossipTrial(w.e.seed, w.trial, w.e.sc.gossipN)}
		root := -1
		if tr != nil {
			root = tr.start(spTrial, -1, int64(w.trial))
		}
		w.trial++
		res, err := w.cluster.RunTrial(spec)
		if tr != nil {
			tr.end(root)
		}
		if err != nil {
			w.bad++
			return nil, fmt.Errorf("gossip trial %d: %w", w.trial-1, err)
		}
		if tr != nil {
			tr.add(spSpread, root, int64(w.trial-1), res.Wall)
		}
		res.Reports, res.Curve = nil, nil // keep only what check reads
		w.results = append(w.results, res)
		s.work += float64(res.Sent)
		s.wall += res.Wall.Seconds()
		if res.Rounds > 0 {
			s.ops = append(s.ops, res.Wall.Seconds()/float64(res.Rounds))
		}
		if (maxTrials > 0 && n+1 >= maxTrials) || s.wall >= d.Seconds() {
			return s, nil
		}
	}
}

func (w *gossipLiveSync) measure(d time.Duration) (*sample, error) {
	return w.loop(d, nil)
}

// check: every trial reached every node and lost nothing. There is no
// lower bound on rounds to hold a trial to: a node informed early in a
// round may itself push later in the same round, so a live trial can
// finish in fewer rounds than the graph's diameter (an 8-node hypercube
// was seen to finish in 2); the note below reports the range seen.
func (w *gossipLiveSync) check() (attempted, failed int) {
	attempted, failed = w.bad, w.bad
	lo, hi := math.MaxInt, 0
	for _, r := range w.results {
		attempted++
		if r.Informed != r.N || r.N != w.e.sc.gossipN || r.Sent != r.Received ||
			r.Dropped != 0 || r.Rounds < 1 || r.SpreadTime < 0 {
			w.e.notef("gossip_live_sync: bad trial: informed %d/%d sent %d received %d dropped %d rounds %d",
				r.Informed, r.N, r.Sent, r.Received, r.Dropped, r.Rounds)
			failed++
		}
		lo, hi = min(lo, r.Rounds), max(hi, r.Rounds)
	}
	w.e.notef("gossip_live_sync: %d trials, %d to %d rounds each (diameter %d)", len(w.results), lo, hi,
		int(math.Round(math.Log2(float64(w.e.sc.gossipN)))))
	return attempted, failed
}

// traced puts a span on each RunTrial with the program's own Wall as
// its child: the child is the message plane at work, the parent's self
// time the STARTUP and SHUTDOWN sweeps and the graph build.
func (w *gossipLiveSync) traced(tr *tracer, d time.Duration) (*tracedSample, error) {
	s, err := w.loop(d, tr)
	if err != nil {
		return nil, err
	}
	self, top := tr.selfTimes()
	return &tracedSample{work: s.work, wall: s.wall, phases: phaseShares(self, top, false)}, nil
}

func (w *gossipLiveSync) tearDown() {
	if w.cluster != nil {
		w.cluster.Close()
		w.cluster = nil
	}
}
