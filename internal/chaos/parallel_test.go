package chaos

import (
	"reflect"
	"testing"
)

// TestMinimizeParallelMatchesSequential: speculative parallel bisection must
// commit the exact search path the sequential bisection takes, producing a
// byte-identical minimized schedule and report.
func TestMinimizeParallelMatchesSequential(t *testing.T) {
	o := corruptionOnlyOptions(*chaosSeed)
	o.DisableChecksums = true

	sSched, sMin, sFull := minimizeRot(t, o, 1)
	pSched, pMin, pFull := minimizeRot(t, o, 4)
	if sFull == nil || len(sFull.Violations) == 0 {
		t.Fatal("expected the full corruption run to violate")
	}
	if !reflect.DeepEqual(sSched, pSched) {
		t.Fatalf("minimized schedules differ: sequential %d faults, parallel %d faults",
			len(sSched), len(pSched))
	}
	if a, b := sMin.LogText(), pMin.LogText(); a != b {
		t.Fatalf("minimized run logs differ (%d vs %d bytes)", len(a), len(b))
	}
	if !reflect.DeepEqual(sMin.Violations, pMin.Violations) {
		t.Fatalf("minimized violations differ:\nseq %v\npar %v", sMin.Violations, pMin.Violations)
	}
	if a, b := sFull.LogText(), pFull.LogText(); a != b {
		t.Fatalf("full run logs differ — the full run itself is nondeterministic")
	}
}
