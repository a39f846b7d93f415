package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// TestQuickSuiteGolden pins every byte `experiments -quick` prints at the
// default seed: tables, verdict lines and the summary. A refactor of the
// reducers or of how verdicts are judged must leave this file alone; a
// change that moves a verdict regenerates it with -update and explains
// each moved line.
func TestQuickSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite")
	}
	var out bytes.Buffer
	if _, err := RunAll(Config{Quick: true, Out: &out}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "quick_suite.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got := out.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("quick suite output drifted from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
