//go:build !race

package service

import (
	"context"
	"testing"

	"rumor/internal/api"
)

// The race detector inflates allocation counts, so these pins build
// only without it.

// TestValidateAllocs: validating a time cell of the SDK's job, under
// either timing, allocates nothing. The verdict depends only on the
// cell's fields, so no trial constructor is built for it.
func TestValidateAllocs(t *testing.T) {
	for _, c := range sdkJobCells() {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Validate of a %s %s %s cell: %v allocs, want 0", c.Family, c.Protocol, c.Timing, allocs)
		}
	}
}

// TestValidateSortedCoverageAllocs: the milestone-name check reads a
// coverage list given sorted in place.
func TestValidateSortedCoverageAllocs(t *testing.T) {
	c := CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: TimingAsync,
		Trials: 2, GraphSeed: 1, TrialSeed: 1, CoverageFracs: []float64{0.125, 0.5, 0.5, 0.9, 1}}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate of a cell with coverage %v: %v allocs, want 0", c.CoverageFracs, allocs)
	}
}

// TestNameSpellingAllocs: a cell's key and its validation allocate as
// much for names in any case as for the canonical names.
func TestNameSpellingAllocs(t *testing.T) {
	canonical := CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: TimingAsync,
		View: "global-clock", Trials: 2, GraphSeed: 1, TrialSeed: 1}
	mixed := canonical
	mixed.Protocol, mixed.View = "PUSH-PULL", "Per-Node-Clocks"
	want := testing.AllocsPerRun(100, func() { _ = canonical.Key() })
	if got := testing.AllocsPerRun(100, func() { _ = mixed.Key() }); got != want {
		t.Errorf("Key of a %s %s cell: %v allocs, of a %s %s cell: %v", mixed.Protocol, mixed.View, got,
			canonical.Protocol, canonical.View, want)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := mixed.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate of a %s %s cell: %v allocs, want 0", mixed.Protocol, mixed.View, allocs)
	}
}

// TestDecodeResultAllocs: decoding a plain result row with the default
// milestones allocates the key, the graph name, the times, and the
// coverage map, and no copy of a name the service already knows.
func TestDecodeResultAllocs(t *testing.T) {
	cell := CellSpec{Family: "hypercube", N: 64, Protocol: "push-pull", Timing: TimingAsync, Trials: 2,
		GraphSeed: 1, TrialSeed: mixSeed(0x5eed, 1)}
	res, _, err := (&Executor{TrialWorkers: 1}).Run(context.Background(), 3, cell)
	if err != nil {
		t.Fatal(err)
	}
	row, err := api.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var r CellResult
	if !parseResult(row, &r) {
		t.Fatalf("the reader declines %s", row)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeResult(row, &r); err != nil {
			t.Fatal(err)
		}
	}); allocs > 6 {
		t.Errorf("DecodeResult(%s): %v allocs, want at most 6", row, allocs)
	}
}
