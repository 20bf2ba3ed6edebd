package chaos

import (
	"bytes"
	"strings"
	"testing"

	"ustore/internal/obs"
)

// engineFleetRun runs the seed-9 unit-loss scenario and returns the report
// plus serialized metrics/trace.
func engineFleetRun(t *testing.T, units, shards int) (*FleetReport, string, string) {
	t.Helper()
	rec := obs.NewRecorder()
	rep, err := RunFleet(FleetOptions{
		Seed:     9,
		Units:    units,
		Shards:   shards,
		UnitLoss: true,
		Recorder: rec,
	})
	if err != nil {
		t.Fatalf("engine run: %s", err)
	}
	var m, tr bytes.Buffer
	if err := rec.Registry().WriteJSON(&m); err != nil {
		t.Fatal(err)
	}
	if err := rec.Tracer().WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	return rep, m.String(), tr.String()
}

// TestFleetEngineByteDeterminism: two runs of the same seed produce
// byte-identical logs, summaries, metrics JSON, trace JSON, and event
// counts.
func TestFleetEngineByteDeterminism(t *testing.T) {
	units, shards := 8, 2
	if !testing.Short() {
		units, shards = 64, 8
	}
	base, bm, bt := engineFleetRun(t, units, shards)
	if len(base.Violations) != 0 {
		t.Fatalf("violations:\n%s", strings.Join(base.Violations, "\n"))
	}
	rep, m, tr := engineFleetRun(t, units, shards)
	if strings.Join(rep.Log, "\n") != strings.Join(base.Log, "\n") {
		t.Fatalf("log diverges between runs:\n--- run 1\n%s\n--- run 2\n%s",
			strings.Join(base.Log, "\n"), strings.Join(rep.Log, "\n"))
	}
	if rep.SummaryText() != base.SummaryText() {
		t.Fatalf("summary diverges:\n%s\nvs\n%s", base.SummaryText(), rep.SummaryText())
	}
	if rep.Events != base.Events {
		t.Fatalf("event count %d != %d", rep.Events, base.Events)
	}
	if m != bm {
		t.Fatal("metrics JSON diverges between runs")
	}
	if tr != bt {
		t.Fatal("trace JSON diverges between runs")
	}
}
