package service

import (
	"reflect"
	"testing"
)

func gridSpec() JobSpec {
	return JobSpec{
		Families:  []string{"complete", "star"},
		Sizes:     []int{16, 32},
		Protocols: []string{"push-pull"},
		Timings:   []string{TimingSync, TimingAsync},
		Trials:    5,
		Seed:      7,
	}
}

func TestCellsCanonicalOrder(t *testing.T) {
	cells := gridSpec().Cells()
	if len(cells) != 2*2*1*2 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	// Families outermost, then sizes, protocols, timings.
	want := []struct {
		family string
		n      int
		timing string
	}{
		{"complete", 16, TimingSync}, {"complete", 16, TimingAsync},
		{"complete", 32, TimingSync}, {"complete", 32, TimingAsync},
		{"star", 16, TimingSync}, {"star", 16, TimingAsync},
		{"star", 32, TimingSync}, {"star", 32, TimingAsync},
	}
	for i, w := range want {
		c := cells[i]
		if c.Family != w.family || c.N != w.n || c.Timing != w.timing {
			t.Errorf("cell %d = %+v, want %+v", i, c, w)
		}
	}
}

func TestCellsDeterministicExpansion(t *testing.T) {
	a, b := gridSpec().Cells(), gridSpec().Cells()
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("cell %d differs between identical expansions: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Key() != b[i].Key() {
			t.Fatalf("cell %d key unstable", i)
		}
	}
}

func TestCellKeysDistinct(t *testing.T) {
	seen := make(map[string]CellSpec)
	for _, seed := range []uint64{1, 2} {
		spec := gridSpec()
		spec.Seed = seed
		for _, c := range spec.Cells() {
			key := c.Key()
			if prev, dup := seen[key]; dup {
				t.Fatalf("key collision between %+v and %+v", prev, c)
			}
			seen[key] = c
		}
	}
}

func TestCellsShareGraphAcrossTimings(t *testing.T) {
	cells := gridSpec().Cells()
	// complete/16 sync and async must target the same graph instance...
	if cells[0].GraphKey() != cells[1].GraphKey() {
		t.Errorf("sync and async cells of one sweep point have different graph keys: %q vs %q",
			cells[0].GraphKey(), cells[1].GraphKey())
	}
	// ...but different trial streams and different cache keys.
	if cells[0].TrialSeed == cells[1].TrialSeed {
		t.Error("sync and async cells share a trial seed")
	}
	if cells[0].GraphKey() == cells[2].GraphKey() {
		t.Error("different sizes share a graph key")
	}
}

func TestCellCount(t *testing.T) {
	spec := gridSpec()
	if n, ok := spec.CellCount(); !ok || n != len(spec.Cells()) {
		t.Errorf("CellCount = %d, %v; want %d", n, ok, len(spec.Cells()))
	}
	// Overflowing axis products are flagged, not wrapped around.
	huge := JobSpec{ // 2^64 cells: overflows 64-bit int
		Families:  make([]string, 1<<16),
		Sizes:     make([]int, 1<<16),
		Protocols: make([]string, 1<<16),
		Timings:   make([]string, 1<<16),
	}
	if _, ok := huge.CellCount(); ok {
		t.Error("overflowing cell count not detected")
	}
}

func TestJobSpecValidate(t *testing.T) {
	good := gridSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []JobSpec{
		{},
		{Families: []string{"no-such-family"}, Sizes: []int{8}, Protocols: []string{"push"}, Timings: []string{"sync"}, Trials: 1},
		{Families: []string{"complete"}, Sizes: []int{8}, Protocols: []string{"smoke"}, Timings: []string{"sync"}, Trials: 1},
		{Families: []string{"complete"}, Sizes: []int{8}, Protocols: []string{"push"}, Timings: []string{"sometimes"}, Trials: 1},
		{Families: []string{"complete"}, Sizes: []int{8}, Protocols: []string{"push"}, Timings: []string{"sync"}, Trials: 0},
		{Families: []string{"complete"}, Sizes: []int{0}, Protocols: []string{"push"}, Timings: []string{"sync"}, Trials: 1},
		// A bad value late in a longer axis than the others.
		{Families: []string{"complete", "star", "nope"}, Sizes: []int{8}, Protocols: []string{"push"}, Timings: []string{"sync"}, Trials: 1},
		{Families: []string{"complete"}, Sizes: []int{8, 16}, Protocols: []string{"push", "pull", "smoke"}, Timings: []string{"sync"}, Trials: 1},
		{Families: []string{"complete"}, Sizes: []int{8}, Protocols: []string{"push"}, Timings: []string{"sync", "async", "sometimes"}, Trials: 1},
		{Families: []string{"complete"}, Sizes: []int{8, 0, 16}, Protocols: []string{"push"}, Timings: []string{"sync"}, Trials: 1},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
}
