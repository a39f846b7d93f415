//go:build goexperiment.synctest

// Live trials on memnet inside a testing/synctest bubble. The bubble's
// synthetic clock drives time.Now, the nodes' timers and the pipes'
// deadlines, and it moves only when every goroutine in the bubble is
// blocked, so a trial's timing is a function of its seeds, not of the
// scheduler. Run with
//
//	GOEXPERIMENT=synctest go test -race -run TestReplay ./internal/gossip/
//
// (Go 1.25 makes the package standard as synctest.Test.)

package gossip

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"rumor/internal/obs"
	"rumor/internal/service"
)

// informing is one node's record of a trial: whether and when it was
// informed, async times in nanoseconds after the source.
type informing struct {
	Informed bool
	Round    int32
	AfterNS  int64
}

// bubbleTrial runs spec once on a fresh memnet cluster in a fresh bubble.
func bubbleTrial(t *testing.T, spec TrialSpec) *TrialResult {
	t.Helper()
	var res *TrialResult
	var err error
	synctest.Run(func() {
		c, _ := memCluster(newMemnet(), spec.Cell.N, nil)
		defer c.Close()
		res, err = c.RunTrial(spec)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReplayLiveTrials: a 64-node hypercube push-pull trial replays
// node for node — sync informed rounds, and async informing times
// relative to the source to the nanosecond, lossless and with loss and
// latency. (Sync with loss does not replay: a round's concurrent pulls
// draw from the callee's one generator in arrival order.)
func TestReplayLiveTrials(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timing  string
		loss    float64
		latency LatencySpec
		runs    int
	}{
		{"sync", service.TimingSync, 0, LatencySpec{}, 100},
		{"async", service.TimingAsync, 0, LatencySpec{}, 100},
		{"async loss 0.3 exp:3ms", service.TimingAsync, 0.3, LatencySpec{Dist: LatencyExp, Mean: 3 * time.Millisecond}, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec("hypercube", 64, "push-pull", tc.timing)
			spec.Cell.LossProb = tc.loss
			spec.Latency = tc.latency
			var first []informing
			for run := 0; run < tc.runs; run++ {
				res := bubbleTrial(t, spec)
				checkFullCoverage(t, res)
				src := res.Reports[spec.Cell.Source].InformedAtUnixNano
				got := make([]informing, len(res.Reports))
				for i, r := range res.Reports {
					got[i] = informing{r.Informed, r.InformedRound, r.InformedAtUnixNano - src}
				}
				if first == nil {
					first = got
				} else if !reflect.DeepEqual(got, first) {
					t.Fatalf("run %d: informing records\n%v\nfirst run\n%v", run, got, first)
				}
			}
		})
	}
}

// faulty is the node a fault row misbehaves at.
const faulty = 5

// faultRow is one sync push-pull trial on a 16-node hypercube, in a
// bubble, whose node faulty answers as f says.
type faultRow struct {
	err    error         // the trial's
	took   time.Duration // the trial's, on the bubble's clock
	active []bool        // each node's, after the trial
	reg    *obs.Registry
	leaked int // goroutines the bubble still held once the cluster was closed
}

func runFaultRow(f func(reply *Envelope) fault) faultRow {
	const n = 16
	row := faultRow{reg: obs.NewRegistry()}
	before := runtime.NumGoroutine()
	synctest.Run(func() {
		c, lns := memCluster(newMemnet(), n, NewMetrics(row.reg))
		lns[faulty].setFault(f)
		start := time.Now()
		_, row.err = c.RunTrial(testSpec("hypercube", n, "push-pull", service.TimingSync))
		row.took = time.Since(start)
		for _, node := range c.nodes {
			node.mu.Lock()
			row.active = append(row.active, node.active)
			node.mu.Unlock()
		}
		c.Close()
		synctest.Wait()
		row.leaked = runtime.NumGoroutine() - before - 1 // this goroutine
	})
	return row
}

// checkShutDown: every node but skip got the trial's SHUTDOWN, and
// closing the cluster left no goroutine in the bubble.
func (row faultRow) checkShutDown(t *testing.T, skip int) {
	t.Helper()
	for i, a := range row.active {
		if a && i != skip {
			t.Errorf("node %d still active after the failed trial", i)
		}
	}
	want := len(row.active)
	if skip >= 0 {
		want--
	}
	scrape, err := obs.ParseText(strings.NewReader(scrapeText(t, row.reg)))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := scrape.Value("rumor_gossip_messages_received_total", map[string]string{"method": MethodShutdown}); got != float64(want) {
		t.Errorf("%v SHUTDOWN messages received, want %d", got, want)
	}
	if row.leaked > 0 {
		t.Errorf("%d goroutines left in the bubble after Close", row.leaked)
	}
}

// TestReplayKilledNode: a node that leaves the network after its third
// ROUND reply fails the trial in round 4, on the coordinator's redial,
// with an error naming it; every other node still gets its SHUTDOWN.
// (3(b)'s partial coverage would return a result here instead.)
func TestReplayKilledNode(t *testing.T) {
	var rounds atomic.Int64
	row := runFaultRow(func(reply *Envelope) fault {
		if reply.Method == MethodRound && rounds.Add(1) == 3 {
			return killAfterReply
		}
		return passReply
	})
	name := fmt.Sprintf("node %d (node%d)", faulty, faulty)
	if row.err == nil || !strings.Contains(row.err.Error(), "round 4: "+name) || !strings.Contains(row.err.Error(), "refused") {
		t.Fatalf("err = %v, want a refused redial of %s in round 4", row.err, name)
	}
	if !row.active[faulty] {
		t.Errorf("the killed node got a SHUTDOWN")
	}
	row.checkShutDown(t, faulty)
}

// TestReplaySilentNode: a node that reads its first ROUND and never
// answers fails the trial after exactly gossipCallTimeout on the
// bubble's clock, the coordinator's deadline on that call; the node
// answers its SHUTDOWN, as does every other.
func TestReplaySilentNode(t *testing.T) {
	var stalled atomic.Bool
	row := runFaultRow(func(reply *Envelope) fault {
		if reply.Method == MethodRound && stalled.CompareAndSwap(false, true) {
			return stallReply
		}
		return passReply
	})
	name := fmt.Sprintf("node %d (node%d)", faulty, faulty)
	if !errors.Is(row.err, os.ErrDeadlineExceeded) || !strings.Contains(row.err.Error(), "round 1: "+name) {
		t.Fatalf("err = %v, want %s's deadline in round 1", row.err, name)
	}
	if row.took != gossipCallTimeout {
		t.Errorf("trial failed after %v, want exactly gossipCallTimeout (%v)", row.took, gossipCallTimeout)
	}
	row.checkShutDown(t, -1)
}
