package chaos

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// windowOpeners lists the opening kind of every window family, in the order
// the drain phase heals them.
var windowOpeners = []FaultKind{
	FaultHostCrash, FaultDiskFail, FaultHubFail, FaultLinkCut, FaultLinkLoss,
	FaultLinkDup, FaultIsolate, FaultDiskDegrade, FaultLinkDowngrade, FaultBrownout,
}

// TestFaultVocabularyGolden pins every log line the fault vocabulary can
// produce: the full seed-1 two-day gray+mitigation run, then one schedule
// prefix per window family cut right after that family's first opener — so
// the run ends with exactly that window open and only the drain phase can
// heal it (the path no CLI run reaches). Regenerate with -update.
func TestFaultVocabularyGolden(t *testing.T) {
	o := DefaultOptions(1, 2*24*time.Hour)
	o.GrayFaults = true
	o.Mitigation = true
	full, err := Run(o)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	var got strings.Builder
	section := func(title string, rep *Report) {
		fmt.Fprintf(&got, "=== %s\n%s%s\n", title, rep.SummaryText(), rep.LogText())
	}
	section("full schedule", full)
	for _, kind := range windowOpeners {
		i := 0
		for i < len(full.Schedule) && full.Schedule[i].Kind != kind {
			i++
		}
		if i == len(full.Schedule) {
			t.Fatalf("seed-1 schedule never opens a %s window", kind)
		}
		rep, err := RunSchedule(o, full.Schedule[:i+1])
		if err != nil {
			t.Fatalf("prefix ending in %s: %v", kind, err)
		}
		section(fmt.Sprintf("prefix of %d faults ending with %s open", i+1, kind), rep)
	}

	golden := filepath.Join("testdata", "faults_seed1.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if !bytes.Equal([]byte(got.String()), want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("fault log drifted from golden at line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("fault log drifted from golden: %d lines, want %d", len(gotLines), len(wantLines))
	}
}

// TestFaultFamiliesCoverEveryKind: every kind belongs to exactly one row of
// the families table, the window rows are in drain order, and the 22 names
// the logs, metric labels and trace instants carry are these.
func TestFaultFamiliesCoverEveryKind(t *testing.T) {
	rows := map[FaultKind]int{}
	var openers []FaultKind
	for _, fam := range families {
		rows[fam.open]++
		if fam.close != fam.open {
			rows[fam.close]++
		}
		if (fam.key != "") != (fam.close != fam.open) || (fam.heal != nil) != (fam.key != "") || fam.inject == nil {
			t.Errorf("row %s: a window family has a closer, a key and a heal; a point event none of them", fam.openName)
		}
		if fam.key != "" {
			openers = append(openers, fam.open)
		}
	}
	if fmt.Sprint(openers) != fmt.Sprint(windowOpeners) {
		t.Errorf("window rows in order %v, want the drain order %v", openers, windowOpeners)
	}
	want := []string{
		"host-crash", "host-restore", "disk-fail", "disk-replace", "hub-fail", "hub-replace",
		"link-cut", "link-heal", "link-loss", "link-loss-end", "link-dup", "link-dup-end",
		"isolate", "rejoin", "corrupt", "disk-degrade", "disk-recover", "link-flap",
		"link-downgrade", "link-restore", "brownout", "brownout-end",
	}
	for k := FaultHostCrash; k <= FaultBrownoutEnd; k++ {
		if rows[k] != 1 {
			t.Errorf("%s is declared by %d rows, want 1", want[k], rows[k])
		}
		if got := k.String(); got != want[k] {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(k), got, want[k])
		}
	}
	if len(rows) != len(want) {
		t.Errorf("the table declares %d kinds, want %d", len(rows), len(want))
	}
	for _, k := range []FaultKind{-1, FaultBrownoutEnd + 1} {
		if got, want := k.String(), fmt.Sprintf("FaultKind(%d)", int(k)); got != want {
			t.Errorf("unknown kind prints %q, want %q", got, want)
		}
	}
}
