package chaos

import (
	"bytes"
	"strings"
	"testing"

	"ustore/internal/obs"
)

// engineFleetRun runs the unit-loss scenario with the given engine worker
// count and returns the report plus serialized metrics/trace.
func engineFleetRun(t *testing.T, units, shards, workers int) (*FleetReport, string, string) {
	t.Helper()
	rec := obs.NewRecorder()
	rep, err := RunFleet(FleetOptions{
		Seed:          9,
		Units:         units,
		Shards:        shards,
		UnitLoss:      true,
		Recorder:      rec,
		EngineWorkers: workers,
	})
	if err != nil {
		t.Fatalf("engine run (workers=%d): %s", workers, err)
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

// TestFleetEngineByteDeterminism is the engine's contract: the same seed
// produces byte-identical logs, summaries (engine counters included),
// metrics JSON, trace JSON, and event counts at every worker count,
// including 0 (derived from the host's GOMAXPROCS). Worker count only caps
// the goroutines that execute a synchronization window; it never moves a
// window boundary. At 2 and 8 workers some windows must have fanned out, so
// -race covers the worker path whichever mode this host prefers.
func TestFleetEngineByteDeterminism(t *testing.T) {
	units, shards := 8, 2
	if !testing.Short() {
		units, shards = 64, 8
	}
	base, bm, bt := engineFleetRun(t, units, shards, 1)
	if len(base.Violations) != 0 {
		t.Fatalf("violations at workers=1:\n%s", strings.Join(base.Violations, "\n"))
	}
	if base.Engine.Windows == 0 || base.Engine.FannedOut != 0 {
		t.Fatalf("workers=1 engine stats %+v: want windows, none fanned out", base.Engine)
	}
	for _, workers := range []int{0, 2, 8} {
		rep, m, tr := engineFleetRun(t, units, shards, workers)
		if strings.Join(rep.Log, "\n") != strings.Join(base.Log, "\n") {
			t.Fatalf("workers=%d: log diverges from workers=1:\n--- w1\n%s\n--- w%d\n%s",
				workers, strings.Join(base.Log, "\n"), workers, strings.Join(rep.Log, "\n"))
		}
		if rep.SummaryText() != base.SummaryText() {
			t.Fatalf("workers=%d: summary diverges:\n%s\nvs\n%s",
				workers, base.SummaryText(), rep.SummaryText())
		}
		if rep.Events != base.Events {
			t.Fatalf("workers=%d: event count %d != %d", workers, rep.Events, base.Events)
		}
		if workers >= 2 && rep.Engine.FannedOut == 0 {
			t.Fatalf("workers=%d: no engine window fanned out", workers)
		}
		if m != bm {
			t.Fatalf("workers=%d: metrics JSON diverges from workers=1", workers)
		}
		if tr != bt {
			t.Fatalf("workers=%d: trace JSON diverges from workers=1", workers)
		}
	}
}
