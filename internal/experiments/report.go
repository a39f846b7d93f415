package experiments

import (
	"fmt"
	"io"
	"time"
)

// WriteMarkdownReport renders experiment outcomes as a Markdown
// document: a summary table followed by one section per experiment
// with its captured details. generatedAt allows callers to stamp the
// run (pass the zero time to omit the stamp).
func WriteMarkdownReport(w io.Writer, outcomes []*Outcome, cfg Config, generatedAt time.Time) error {
	mode := "full"
	if cfg.Quick {
		mode = "quick"
	}
	if _, err := fmt.Fprintf(w, "# Experiment report\n\n"); err != nil {
		return err
	}
	if !generatedAt.IsZero() {
		if _, err := fmt.Fprintf(w, "Generated %s.\n", generatedAt.Format(time.RFC3339)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "Mode: %s; seed %d.\n\n", mode, cfg.seed()); err != nil {
		return err
	}
	supported := 0
	for _, o := range outcomes {
		if o.Verdict == Supported {
			supported++
		}
	}
	if _, err := fmt.Fprintf(w, "**Verdicts: %d/%d SUPPORTED.**\n\n", supported, len(outcomes)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "| ID | Title | Verdict | Summary |\n|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, o := range outcomes {
		if _, err := fmt.Fprintf(w, "| %s | %s | %s | %s |\n", o.ID, o.Title, o.Verdict, o.Summary); err != nil {
			return err
		}
	}
	for _, o := range outcomes {
		if _, err := fmt.Fprintf(w, "\n## %s — %s\n\nVerdict: **%s**. %s\n", o.ID, o.Title, o.Verdict, o.Summary); err != nil {
			return err
		}
		if o.Details != "" {
			if _, err := fmt.Fprintf(w, "\n```\n%s```\n", o.Details); err != nil {
				return err
			}
		}
	}
	return nil
}
