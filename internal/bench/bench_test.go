package bench

import (
	"os"
	"strings"
	"testing"
	"time"

	"ustore/internal/disk"
	"ustore/internal/obs"
	"ustore/internal/workload"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bee"},
		Rows:   [][]string{{"1", "2"}, {"longer", "3"}},
		Notes:  []string{"note"},
	}
	out := tab.Render()
	for _, want := range []string{"=== x: demo ===", "a       bee", "longer  3", "note: note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableIHasAllSolutions(t *testing.T) {
	tab := TableI()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[4][0] != "UStore" {
		t.Fatalf("last row = %v, want UStore", tab.Rows[4])
	}
}

// TestTableIIShape checks the table's layout: 36 rows (12 workloads x 3
// interconnects), each measured once, with the paper's value beside it.
// The measurements themselves are checked by TestFidelity and
// workload.TestTableIIClosedLoop, so a stub stands in for the simulation.
func TestTableIIShape(t *testing.T) {
	calls := map[string]int{}
	tab := tableII(func(ic disk.Interconnect, spec workload.Spec) float64 {
		calls[ic.String()+" "+spec.String()]++
		return 1
	})
	if len(tab.Rows) != 36 { // 12 workloads x 3 interconnects
		t.Fatalf("rows = %d, want 36", len(tab.Rows))
	}
	if len(calls) != 36 {
		t.Fatalf("measured %d distinct cells, want 36", len(calls))
	}
	for k, n := range calls {
		if n != 1 {
			t.Fatalf("cell %s measured %d times", k, n)
		}
	}
	for i, row := range tab.Rows {
		spec := workload.PaperWorkloads()[i/3]
		ic := []disk.Interconnect{disk.AttachSATA, disk.AttachUSB, disk.AttachFabric}[i%3]
		want := []string{spec.String(), ic.String(), Cell(1), Cell(paperTableII[ic][i/3])}
		if strings.Join(row, "|") != strings.Join(want, "|") {
			t.Fatalf("row %d = %v, want %v", i, row, want)
		}
	}
}

func TestFigure5ShapeAndSaturation(t *testing.T) {
	spec := workload.Spec{Size: 4 << 20, ReadPct: 100, Pattern: disk.Sequential}
	two, err := Figure5Point(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	twelve, err := Figure5Point(spec, 12)
	if err != nil {
		t.Fatal(err)
	}
	if twelve > two*1.02 {
		t.Fatalf("4M-SR kept scaling: 2 disks %.0f vs 12 disks %.0f", two, twelve)
	}
}

func TestFigure6PartsShape(t *testing.T) {
	rec := obs.NewRecorder()
	p1, err := MeasureSwitch(1, 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	// The milestone tally flows into the recorder: one disk enumerated,
	// one space exported, one space mounted.
	for _, phase := range []string{"switch-enumerated", "switch-exported", "switch-mounted"} {
		if got := rec.Counter("bench", "milestones_total", obs.L("phase", phase)).Value(); got != 1 {
			t.Errorf("milestones_total{phase=%s} = %d, want 1", phase, got)
		}
	}
	p4, err := MeasureSwitch(4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p4.Part1 <= p1.Part1 {
		t.Fatalf("part1 did not grow: 1 disk %v, 4 disks %v", p1.Part1, p4.Part1)
	}
	// Parts 2 and 3 stay roughly flat (within 1.5s of each other).
	if d := (p4.Part2 - p1.Part2); d > 1500*time.Millisecond || d < -1500*time.Millisecond {
		t.Fatalf("part2 not flat: %v vs %v", p1.Part2, p4.Part2)
	}
	if d := (p4.Part3 - p1.Part3); d > 1500*time.Millisecond || d < -1500*time.Millisecond {
		t.Fatalf("part3 not flat: %v vs %v", p1.Part3, p4.Part3)
	}
	if p1.Total() < time.Second || p1.Total() > 15*time.Second {
		t.Fatalf("1-disk switch total %v implausible", p1.Total())
	}
}

func TestFailoverHeadline(t *testing.T) {
	rec := obs.NewRecorder()
	took, err := MeasureFailover(1, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("core", "host_deaths_total").Value(); got == 0 {
		t.Errorf("host_deaths_total = 0 after a host crash")
	}
	// Paper: 5.8s. Accept the 3-10s band: the shape claim is "seconds,
	// not minutes, and no data rebuild".
	if took < 2*time.Second || took > 10*time.Second {
		t.Fatalf("recovery = %v, paper 5.8s", took)
	}
}

// TestAblationsRun checks every ablation produces error-free rows and pins
// the rendered tables byte for byte against testdata/ablations.txt, which
// is `ustore-bench -ablate`'s output (regenerate it with that command).
func TestAblationsRun(t *testing.T) {
	var got strings.Builder
	for _, tab := range Ablations() {
		if len(tab.Rows) == 0 {
			t.Fatalf("ablation %s produced no rows", tab.ID)
		}
		for _, row := range tab.Rows {
			for _, cell := range row {
				if strings.HasPrefix(cell, "err") {
					t.Fatalf("ablation %s row errored: %v", tab.ID, row)
				}
			}
		}
		got.WriteString(tab.Render() + "\n")
	}
	want, err := os.ReadFile("testdata/ablations.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("ablation tables differ from testdata/ablations.txt:\n%s", got.String())
	}
}

func TestSpinDownScenarioOrdering(t *testing.T) {
	onWh, onUps, _ := runSpinDownScenario(0, false)
	fixedWh, fixedUps, fixedLat := runSpinDownScenario(30*time.Second, false)
	adaptWh, adaptUps, _ := runSpinDownScenario(30*time.Second, true)
	if onUps != 1 {
		t.Fatalf("always-on spin-ups = %d", onUps)
	}
	if fixedWh >= onWh {
		t.Fatalf("fixed policy saved nothing: %.1f vs %.1f Wh", fixedWh, onWh)
	}
	if adaptUps >= fixedUps {
		t.Fatalf("adaptive policy did not reduce spin-ups: %d vs %d", adaptUps, fixedUps)
	}
	if fixedLat < 100*time.Millisecond {
		t.Fatalf("fixed policy should pay spin-up latency, got %v", fixedLat)
	}
	_ = adaptWh
}
