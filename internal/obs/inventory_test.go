package obs_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rumor/internal/cachestore"
	"rumor/internal/gossip"
	"rumor/internal/obs"
	"rumor/internal/service"
	"rumor/internal/shard"
)

var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// TestMetricInventoryGolden pins every metric family the four
// instrumented subsystems register — name, type, help and label names —
// so a refactor of the instrumentation glue that claims "metric names
// unchanged" is checked, not asserted. The file was recorded before the
// per-package nil-guarded wrappers moved into obs; run with -update only
// for an intentional, documented change to the metric surface.
func TestMetricInventoryGolden(t *testing.T) {
	reg := obs.NewRegistry()
	service.NewObservability(reg, nil)
	cachestore.NewMetrics(reg)
	shard.NewMetrics(reg)
	gossip.NewMetrics(reg)

	var b strings.Builder
	for _, name := range reg.Families() { // sorted
		typ, _ := reg.Type(name)
		help, _ := reg.Help(name)
		labels, _ := reg.Labels(name)
		b.WriteString(name + " · " + typ + " · " + help + " · " + strings.Join(labels, ",") + "\n")
	}

	path := filepath.Join("testdata", "inventory.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got := b.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Errorf("metric inventory drifted from %s at line %d:\ngot:  %s", path, i+1, gotLines[i])
				if i < len(wantLines) {
					t.Errorf("want: %s", wantLines[i])
				}
			}
		}
		if len(wantLines) > len(gotLines) {
			t.Errorf("golden file has %d lines, registry produced %d", len(wantLines), len(gotLines))
		}
	}
}
