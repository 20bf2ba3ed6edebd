package chaos

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ustore/internal/obs"
)

// newProbeHarness is a mitigated one-hour harness with every fail-stop
// family off and every block of every pair freshly written and acknowledged,
// ready for probe bursts run by hand.
func newProbeHarness(t *testing.T) *harness {
	t.Helper()
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
	return h
}

// runBurst runs one probe burst on every pair to its end and returns the
// violations it reported.
func runBurst(t *testing.T, h *harness) []string {
	t.Helper()
	before, want := len(h.Violations), h.stats.ProbeReads+grayProbeBurst*workloadPairs
	h.probeAll()
	h.settleUntil(func() bool { return h.stats.ProbeReads == want }, time.Hour)
	if h.stats.ProbeReads != want || h.stats.ProbeErrors != 0 {
		t.Fatalf("%d probe reads (%d errors), want %d clean", h.stats.ProbeReads, h.stats.ProbeErrors, want)
	}
	return h.Violations[before:]
}

// verifiedBursts runs two clean bursts, so most blocks of both copies have a
// verified chunk generation, and fails unless later reads hit the memo.
func verifiedBursts(t *testing.T, h *harness) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if v := runBurst(t, h); len(v) > 0 {
			t.Fatalf("a clean burst reported:\n%s", strings.Join(v, "\n"))
		}
	}
	if h.stats.ProbeMemoHits == 0 {
		t.Fatal("no probe read hit the memo, so nothing below tests it")
	}
}

// requireEveryReadReported: after the planted divergence, every read of
// the burst must be reported as matching neither copy, the reads of blocks
// whose old chunk generation was verified included.
func requireEveryReadReported(t *testing.T, v []string) {
	t.Helper()
	if len(v) != grayProbeBurst*workloadPairs {
		t.Fatalf("%d of %d probe reads reported the divergence:\n%s", len(v), grayProbeBurst*workloadPairs, strings.Join(v, "\n"))
	}
	for _, line := range v {
		if !strings.Contains(line, "matching neither copy") {
			t.Fatalf("unexpected violation: %s", line)
		}
	}
}

// TestProbeMemoCatchesRogueRewrite: bytes written straight into both
// copies' chunks, with the checksum sidecar refreshed so the block layer
// passes them, are a change the memo must see. The write goes through the
// store, which gives the chunk a new generation, so no read of it is known
// equal from the verified one.
func TestProbeMemoCatchesRogueRewrite(t *testing.T) {
	h := newProbeHarness(t)
	verifiedBursts(t, h)
	rogue := bytes.Repeat([]byte{0xEE}, BlockSize)
	for _, r := range h.replicas {
		st := h.c.Disks[r.diskID].Store()
		for blk := range r.blocks {
			off := r.offset + int64(blk)*BlockSize
			st.WriteAt(off, rogue)
			st.SetBlockCRC(off/BlockSize, st.ChunkCRC(off/BlockSize))
		}
	}
	requireEveryReadReported(t, runBurst(t, h))
}

// TestProbeMemoCatchesLostAck: a block whose version and expected pattern
// moved on both copies, as if a write were acknowledged that never reached
// the disk, still holds its old chunk generation. A memo that ignored the
// version would call those old bytes equal to the new pattern.
func TestProbeMemoCatchesLostAck(t *testing.T) {
	h := newProbeHarness(t)
	verifiedBursts(t, h)
	for pair := 0; pair < workloadPairs; pair++ {
		for blk := 0; blk < blocksPerSpace; blk++ {
			a, b := &h.replicas[2*pair].blocks[blk], &h.replicas[2*pair+1].blocks[blk]
			next := a.data
			for bytes.Equal(next, a.data) || bytes.Equal(next, b.data) {
				h.writeSeq++
				next = h.pattern(pair, blk, h.writeSeq)
			}
			for _, x := range []*replicaBlock{a, b} {
				x.version++
				x.data = next
			}
		}
	}
	requireEveryReadReported(t, runBurst(t, h))
}

// TestProbeMemoHitRate pins the memo's effect on a 2-day gray soak: at
// least 95 % of probe reads are known equal without a compare, and the
// recorder's counters agree with the stats.
func TestProbeMemoHitRate(t *testing.T) {
	o := DefaultOptions(1, 2*24*time.Hour)
	o.GrayFaults, o.Mitigation = true, true
	o.Recorder = obs.NewRecorder()
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, rep)
	s := rep.Stats
	t.Logf("%d probe reads (%d errors), %d memo hits, %d bytes compared", s.ProbeReads, s.ProbeErrors, s.ProbeMemoHits, s.ProbeBytesCompared)
	if s.ProbeReads == 0 || float64(s.ProbeMemoHits) < 0.95*float64(s.ProbeReads) {
		t.Errorf("%d of %d probe reads hit the memo, want at least 95 %%", s.ProbeMemoHits, s.ProbeReads)
	}
	// Every checked read that missed compares one copy or both.
	missed := int64(s.ProbeReads-s.ProbeErrors-s.ProbeMemoHits) * BlockSize
	if s.ProbeBytesCompared == 0 || s.ProbeBytesCompared > 2*missed {
		t.Errorf("%d bytes compared for %d missed reads", s.ProbeBytesCompared, missed/BlockSize)
	}
	if hits := o.Recorder.Counter("chaos", "probe_memo_hits_total").Value(); hits != uint64(s.ProbeMemoHits) {
		t.Errorf("chaos probe_memo_hits_total = %d, stats say %d", hits, s.ProbeMemoHits)
	}
	if n := o.Recorder.Counter("chaos", "probe_bytes_compared_total").Value(); n != uint64(s.ProbeBytesCompared) {
		t.Errorf("chaos probe_bytes_compared_total = %d, stats say %d", n, s.ProbeBytesCompared)
	}
}

// TestOverlappingProbeBursts: probeAll starts every pair's next burst
// whatever is still in flight, so two bursts' reads overlap on one pair. Each
// probe must verify its read against its own snapshot of the block it read:
// every block holds a different acknowledged pattern, so a probe judged
// against another probe's block reports bytes matching neither copy. Records
// come from the harness's free list, so once both bursts are done there are
// exactly as many as were ever in flight at once — two per pair.
func TestOverlappingProbeBursts(t *testing.T) {
	h := newProbeHarness(t)
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
	if made, idle := h.probes.Counts(); made != 2*workloadPairs || idle != made {
		t.Fatalf("%d of %d probe records back, want %d of %d (two bursts in flight per pair)",
			idle, made, 2*workloadPairs, 2*workloadPairs)
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
