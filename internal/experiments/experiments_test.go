package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registry has %d experiments, want 15 (E1–E12, E14, E15 and E17)", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Cells == nil || e.Reduce == nil {
			t.Fatalf("experiment %+v incomplete", e.ID)
		}
		if len(e.Cells(Config{Quick: true})) == 0 {
			t.Fatalf("experiment %s declares no cells", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("e7")
	if err != nil || e.ID != "E7" {
		t.Fatalf("ByID(e7) = %v, %v", e.ID, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestVerdictString(t *testing.T) {
	if Supported.String() != "SUPPORTED" || Failed.String() != "FAILED" || Borderline.String() != "BORDERLINE" {
		t.Fatal("verdict names wrong")
	}
	if !strings.HasPrefix(Verdict(9).String(), "Verdict(") {
		t.Fatal("unknown verdict name wrong")
	}
}

func TestWorst(t *testing.T) {
	if worst(Supported, Borderline) != Borderline {
		t.Fatal("worst(S,B) != B")
	}
	if worst(Borderline, Failed, Supported) != Failed {
		t.Fatal("worst with Failed != Failed")
	}
	if worst() != Supported {
		t.Fatal("worst() != Supported")
	}
}

func TestConfigDefaults(t *testing.T) {
	var cfg Config
	if cfg.seed() != 20160725 {
		t.Fatalf("default seed = %d", cfg.seed())
	}
	if cfg.out() == nil {
		t.Fatal("nil out writer")
	}
	if cfg.pick(10, 2) != 10 {
		t.Fatal("pick full wrong")
	}
	cfg.Quick = true
	if cfg.pick(10, 2) != 2 {
		t.Fatal("pick quick wrong")
	}
}

// Run every experiment in quick mode: the registry is the product's
// contract, so each one must execute end-to-end and not report Failed.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var sb strings.Builder
			o, err := e.Run(Config{Quick: true, Seed: 1, Out: &sb})
			if err != nil {
				t.Fatalf("%s failed to run: %v\noutput:\n%s", e.ID, err, sb.String())
			}
			if o.ID != e.ID {
				t.Fatalf("outcome ID %s != %s", o.ID, e.ID)
			}
			if o.Verdict == Failed {
				t.Errorf("%s verdict FAILED: %s\noutput:\n%s", e.ID, o.Summary, sb.String())
			}
			if o.Summary == "" {
				t.Errorf("%s produced no summary", e.ID)
			}
			if sb.Len() == 0 {
				t.Errorf("%s produced no table output", e.ID)
			}
		})
	}
}

// TestE10CellsReachDistinctViews: given one common TrialSeed, the three
// view cells on each graph return three pairwise-different series. Each
// cell runs its view's literal clocks, which consume randomness
// differently, so E10's KS tests compare three code paths rather than
// one path under three seeds.
func TestE10CellsReachDistinctViews(t *testing.T) {
	cfg := Config{Quick: true}
	cells := e10Cells(cfg)
	for i := range cells {
		cells[i].TrialSeed = cells[0].TrialSeed
	}
	results, err := cfg.runner().StreamCells(context.Background(), cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	for g, gr := range e10Graphs {
		series := results[g*len(e10Views) : (g+1)*len(e10Views)]
		for i := range series {
			for j := i + 1; j < len(series); j++ {
				if slices.Equal(series[i].Times, series[j].Times) {
					t.Errorf("%s: %v and %v are identical under one TrialSeed", gr.family, e10Views[i], e10Views[j])
				}
			}
		}
	}
}
