package service_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"rumor/client"
	"rumor/internal/api"
	"rumor/internal/gossip"
	"rumor/internal/service"
	"rumor/internal/shard"
)

// door opens one implementation of service.CellRunner, the execution
// spine's one interface, for a test; the daemon doors run on httptest
// servers and everything is shut down with the test.
type door struct {
	name string
	open func(t *testing.T) service.CellRunner
}

// simDoors are the deterministic doors, the in-process executor first.
var simDoors = []door{
	{"executor", func(*testing.T) service.CellRunner { return &service.Executor{Graphs: service.NewGraphCache(0)} }},
	{"scheduler", func(t *testing.T) service.CellRunner { return newScheduler(t) }},
	{"client", func(t *testing.T) service.CellRunner {
		c, err := client.New(newDaemon(t))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}},
	{"coordinator", func(t *testing.T) service.CellRunner {
		co, err := shard.New(shard.Config{Peers: []string{newDaemon(t), newDaemon(t)}})
		if err != nil {
			t.Fatal(err)
		}
		return co
	}},
}

// liveDoor is a self-hosted 4-node cluster.
var liveDoor = door{"live", func(t *testing.T) service.CellRunner {
	c, err := gossip.NewSelfHost(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return gossip.LiveRunner{Cluster: c}
}}

func newScheduler(t *testing.T) *service.Scheduler {
	t.Helper()
	sched := service.NewScheduler(service.SchedulerConfig{
		Workers: 2,
		Results: service.NewResultCache(0),
		Graphs:  service.NewGraphCache(0),
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	})
	return sched
}

// newDaemon serves a fresh scheduler's rumord HTTP surface and returns
// its base URL.
func newDaemon(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(service.NewServer(newScheduler(t)))
	t.Cleanup(ts.Close)
	return ts.URL
}

// simCells is a batch every simulating door runs, spread over both peers
// of a two-daemon coordinator.
func simCells() []service.CellSpec {
	return service.JobSpec{
		Families:  []string{"hypercube", "complete", "star", "cycle"},
		Sizes:     []int{16},
		Protocols: []string{"push-pull"},
		Timings:   []string{service.TimingSync, service.TimingAsync},
		Trials:    2,
		Seed:      30,
	}.Cells()
}

// liveCells is a batch a 4-node complete cluster hosts.
func liveCells() []service.CellSpec {
	cell := service.CellSpec{Family: "complete", N: 4, Protocol: "push-pull", Timing: service.TimingSync, Trials: 1, GraphSeed: 1, TrialSeed: 2}
	other := cell
	other.TrialSeed = 3
	return []service.CellSpec{cell, other}
}

// TestDoorsShareOneBatchContract drives the CellRunner contract through
// every door: an empty batch is an ErrBadSpec and calls nothing; an fn
// error comes back as itself after exactly one call; a full batch
// delivers every cell once and returns the results indexed like the
// input.
func TestDoorsShareOneBatchContract(t *testing.T) {
	for _, d := range append(slices.Clone(simDoors), liveDoor) {
		t.Run(d.name, func(t *testing.T) {
			cells := simCells()
			if d.name == liveDoor.name {
				cells = liveCells()
			}
			r := d.open(t)
			ctx := context.Background()
			calls := 0
			count := func(*service.CellResult) error { calls++; return nil }
			if _, err := r.StreamCells(ctx, nil, count); !errors.Is(err, service.ErrBadSpec) || calls != 0 {
				t.Errorf("empty batch: err = %v after %d calls, want service.ErrBadSpec and none", err, calls)
			}

			stop := errors.New("stop here")
			calls = 0
			if _, err := r.StreamCells(ctx, cells, func(*service.CellResult) error { calls++; return stop }); err != stop || calls != 1 {
				t.Errorf("failing fn: err = %v after %d calls, want fn's own error after one", err, calls)
			}

			delivered := make([]int, len(cells))
			results, err := r.StreamCells(ctx, cells, func(res *service.CellResult) error {
				delivered[res.Index]++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(cells) {
				t.Fatalf("%d results for %d cells", len(results), len(cells))
			}
			for i, res := range results {
				if delivered[i] != 1 || res.Index != i || res.Key != cells[i].Key() {
					t.Errorf("cell %d: delivered %d times, result index %d key %s", i, delivered[i], res.Index, res.Key)
				}
			}
		})
	}
}

// TestDoorsAgreeOnGeneratedCells: a fixed sample of 64 of
// FuzzValidCellRuns's generated cells, run as one batch, reads byte for
// byte the same through every deterministic door as through the
// executor.
func TestDoorsAgreeOnGeneratedCells(t *testing.T) {
	var valid []service.CellSpec
	for _, cell := range service.SweepCells() {
		if cell.Validate() == nil {
			valid = append(valid, cell)
		}
	}
	// The sweep's points all clamp to n = 9 and one trial; the sample
	// spreads over runnable's whole range, 9 <= n <= 16 and two trials.
	var cells []service.CellSpec
	for k, i := range rand.New(rand.NewSource(30)).Perm(len(valid))[:64] {
		cell := valid[i]
		cell.N, cell.Trials = 9+k%8, 1+k%2
		cells = append(cells, cell)
	}
	rows := func(t *testing.T, r service.CellRunner) [][]byte {
		t.Helper()
		results, err := r.StreamCells(context.Background(), cells, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(results))
		for i, res := range results {
			if out[i], err = api.Marshal(res); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	want := rows(t, simDoors[0].open(t))
	for _, d := range simDoors[1:] {
		t.Run(d.name, func(t *testing.T) {
			for i, row := range rows(t, d.open(t)) {
				if !bytes.Equal(row, want[i]) {
					t.Errorf("cell %d (%s):\nexecutor: %s\n%s: %s", i, cells[i].Key(), want[i], d.name, row)
				}
			}
		})
	}
}
