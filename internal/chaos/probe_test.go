package chaos

import (
	"strings"
	"testing"
	"time"
)

// TestOverlappingProbeBursts: probeAll starts every pair's next burst
// whatever is still in flight, so two bursts' reads overlap on one pair. Each
// probe must verify its read against its own snapshot of the block it read:
// every block holds a different acknowledged pattern, so a probe judged
// against another probe's block reports bytes matching neither copy. Records
// come from the harness's free list, so once both bursts are done there are
// exactly as many as were ever in flight at once — two per pair.
func TestOverlappingProbeBursts(t *testing.T) {
	o := DefaultOptions(1, time.Hour)
	o.HostCrashes, o.DiskFaults, o.HubFaults, o.NetFaults, o.Corruptions = false, false, false, false, false
	o.Mitigation = true
	h, err := newHarness(o)
	if err != nil {
		t.Fatal(err)
	}
	for pair := 0; pair < workloadPairs; pair++ {
		for blk := 0; blk < blocksPerSpace; blk++ {
			h.writePair(pair, blk)
		}
	}
	h.settleUntil(func() bool { return h.inflightWrites() == 0 }, time.Hour)
	for _, r := range h.replicas {
		for blk := range r.blocks {
			if b := &r.blocks[blk]; b.data == nil || b.uncertain {
				t.Fatalf("%s block %d not acknowledged before the probes", r.name, blk)
			}
		}
	}

	h.probeAll()
	h.probeAll() // the first burst's reads are still in flight
	const want = 2 * grayProbeBurst * workloadPairs
	h.settleUntil(func() bool { return h.stats.ProbeReads == want }, time.Hour)
	h.c.Settle(time.Minute) // nothing may follow the last read
	if len(h.Violations) > 0 {
		t.Fatalf("overlapping bursts broke verification:\n%s", strings.Join(h.Violations, "\n"))
	}
	if h.stats.ProbeReads != want || h.stats.ProbeErrors != 0 {
		t.Fatalf("%d probe reads (%d errors), want %d clean", h.stats.ProbeReads, h.stats.ProbeErrors, want)
	}
	if n := len(h.spentProbes); n != 2*workloadPairs {
		t.Fatalf("%d probe records, want %d (two bursts in flight per pair)", n, 2*workloadPairs)
	}
}

// TestCheckRamp: the end-of-run guard passes on the intact ramp and reports
// a byte written through any pattern slice.
func TestCheckRamp(t *testing.T) {
	h := &harness{runLog: runLog{now: func() time.Duration { return 0 }, tag: "VIOLATION: "}}
	h.checkRamp()
	if len(h.Violations) != 0 {
		t.Fatalf("intact ramp reported: %v", h.Violations)
	}
	p := h.pattern(1, 2, 3)
	p[100] ^= 0xFF
	defer func() { p[100] ^= 0xFF }()
	h.checkRamp()
	if len(h.Violations) != 1 || !strings.Contains(h.Violations[0], "pattern ramp overwritten") {
		t.Fatalf("a scribbled pattern was not reported: %v", h.Violations)
	}
}
