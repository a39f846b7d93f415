package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"rumor/internal/service"
)

// Determinism regression: experiment verdicts and cell results must be
// byte-identical across worker counts and across cold/warm caches. The
// whole execution spine promises that results are a pure function of
// the spec — this test pins it at the experiment level.
func TestExperimentDeterminismAcrossWorkersAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiment cells repeatedly")
	}
	// A spread of cell kinds: time grids with fits (E1), async views
	// (E10), and the graphless rejection sampler (E12).
	for _, id := range []string{"E1", "E10", "E12"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Quick: true, Seed: 1}
			cells := e.Cells(cfg)

			type run struct {
				name   string
				runner service.CellRunner
				warm   bool
			}
			cached := NewLocalRunner(4, true)
			runs := []run{
				{name: "serial cold", runner: NewLocalRunner(1, false)},
				{name: "parallel cold", runner: cached},
				{name: "parallel warm", runner: cached, warm: true},
				{name: "wide parallel", runner: NewLocalRunner(8, false)},
			}
			var wantCells, wantOutcome string
			for _, r := range runs {
				results, err := r.runner.StreamCells(context.Background(), cells, nil)
				if err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				data, err := json.Marshal(results)
				if err != nil {
					t.Fatal(err)
				}
				o, err := e.reduce(cfg, results)
				if err != nil {
					t.Fatalf("%s: reduce: %v", r.name, err)
				}
				oData, err := json.Marshal(o)
				if err != nil {
					t.Fatal(err)
				}
				if wantCells == "" {
					wantCells, wantOutcome = string(data), string(oData)
					continue
				}
				if string(data) != wantCells {
					t.Errorf("%s: cell results differ from baseline", r.name)
				}
				if string(oData) != wantOutcome {
					t.Errorf("%s: outcome differs from baseline:\n%s\nvs\n%s", r.name, oData, wantOutcome)
				}
			}
			if hits := cached.Results.Stats().Hits; hits == 0 {
				t.Error("warm run produced no result-cache hits")
			}
		})
	}
}

// The scheduler path (what rumord serves) must agree bytewise with the
// local executor path (what cmd/experiments runs).
func TestExperimentSchedulerMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiment cells repeatedly")
	}
	e, err := ByID("E12")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Quick: true, Seed: 7}
	cells := e.Cells(cfg)

	sched := service.NewScheduler(service.SchedulerConfig{Workers: 2})
	defer sched.Shutdown(context.Background())
	viaScheduler, err := sched.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewLocalRunner(1, false).RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(viaScheduler)
	b, _ := json.Marshal(local)
	if string(a) != string(b) {
		t.Errorf("scheduler and local cell results differ:\n%s\nvs\n%s", a, b)
	}
}
