// Package bench is the experiment harness: one function per table and
// figure in the paper's evaluation (§VI–VII), each returning a structured
// Table that cmd/ustore-bench renders and the repository's benchmarks and
// tests assert against. EXPERIMENTS.md records the paper-vs-measured
// comparison these functions produce.
package bench

import (
	"fmt"
	"strings"

	"ustore/internal/obs"
)

// Table is one rendered experiment result.
type Table struct {
	ID     string // "table1", "fig5", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render returns an aligned plain-text rendering.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Cell formats a float with sensible precision for table cells.
func Cell(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// All runs every experiment in paper order. rec (optional) collects
// metrics and traces from the simulated experiments. trials sets the
// failover trial count (<= 0 means DefaultTrials); parallel is the worker
// count handed to the multi-run experiments (fig6 points, failover
// trials), whose output is byte-identical at any worker count.
func All(rec *obs.Recorder, trials, parallel int) []*Table {
	return []*Table{
		TableI(),
		TableII(),
		Figure5(),
		DuplexHeadline(),
		TableIII(),
		TableIV(),
		TableV(),
		Figure6(rec, parallel),
		Failover(rec, trials, parallel),
		HDFSSwitch(rec),
	}
}

// Ablations runs the design-choice studies DESIGN.md calls out.
func Ablations() []*Table {
	return []*Table{
		AblateTopology(),
		AblateFanIn(),
		AblateSingleTree(),
		AblateHeartbeat(),
		AblateSpinDown(),
		AblateRebuild(),
		AblateAvailability(),
		AblatePowerCurve(),
	}
}
