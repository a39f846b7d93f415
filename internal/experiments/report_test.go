package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestWriteMarkdownReport(t *testing.T) {
	outcomes := []*Outcome{
		{ID: "E1", Title: "First", Verdict: Supported, Summary: "all good", Details: "table here\n"},
		{ID: "E2", Title: "Second", Verdict: Borderline, Summary: "close call"},
	}
	var sb strings.Builder
	when := time.Date(2026, 6, 11, 12, 0, 0, 0, time.UTC)
	if err := WriteMarkdownReport(&sb, outcomes, Config{Quick: true, Seed: 7}, when); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# Experiment report",
		"2026-06-11T12:00:00Z",
		"Mode: quick; seed 7",
		"**Verdicts: 1/2 SUPPORTED.**",
		"| E1 | First | SUPPORTED | all good |",
		"## E2 — Second",
		"table here",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWriteMarkdownReportOmitsZeroTime(t *testing.T) {
	var sb strings.Builder
	if err := WriteMarkdownReport(&sb, nil, Config{}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "Generated") {
		t.Fatal("zero time produced a Generated stamp")
	}
}

func TestRunAllCapturesDetails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite")
	}
	// Run is what RunAll calls per experiment: the outcome's Details are
	// exactly the tables between the header and the verdict line.
	e, err := ByID("E12")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	o, err := e.Run(Config{Quick: true, Seed: 1, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	header := "=== E12: " + e.Title + " ===\n" + e.Claim + "\n\n"
	if want := header + o.Details + "E12 verdict: "; o.Details == "" || !strings.HasPrefix(out.String(), want) {
		t.Fatalf("Details %q are not the tables Run printed:\n%s", o.Details, out.String())
	}
}
