package model

import (
	"strings"
	"testing"
	"time"
)

// opAt builds a completed op with an explicit window.
func opAt(k Kind, inv, ret time.Duration, mut func(*Op)) Op {
	op := Op{Kind: k, Client: "c", Invoke: inv, Return: ret, Done: true}
	if mut != nil {
		mut(&op)
	}
	return op
}

func noViolations(t *testing.T, ops []Op) Result {
	t.Helper()
	res := Check(ops)
	for _, v := range res.Violations {
		t.Errorf("unexpected violation in %s: %s", v.Partition, v.Msg)
	}
	if res.BudgetExceeded != 0 {
		t.Errorf("search budget exceeded on %d partitions", res.BudgetExceeded)
	}
	return res
}

func TestLegalLifecycleLinearizes(t *testing.T) {
	sp := func(o *Op) { o.Space = "sp1" }
	ops := []Op{
		opAt(OpAllocate, 0, 1*time.Second, func(o *Op) { o.Space = "sp1"; o.Disk = "d1"; o.Offset = 0; o.Size = 64 }),
		opAt(OpExport, 2*time.Second, 2*time.Second, func(o *Op) { o.Space = "sp1"; o.Host = "h1"; o.Client = "h1" }),
		opAt(OpMount, 3*time.Second, 4*time.Second, func(o *Op) { sp(o); o.Host = "h1" }),
		opAt(OpLookup, 5*time.Second, 6*time.Second, func(o *Op) { sp(o); o.Disk = "d1"; o.Offset = 0; o.Size = 64 }),
		// Failover: revoke at h1, export + remount at h2.
		opAt(OpRevoke, 7*time.Second, 7*time.Second, func(o *Op) { sp(o); o.Host = "h1"; o.Client = "h1" }),
		opAt(OpExport, 8*time.Second, 8*time.Second, func(o *Op) { sp(o); o.Host = "h2"; o.Client = "h2" }),
		opAt(OpRemount, 8500*time.Millisecond, 9*time.Second, func(o *Op) { sp(o); o.Host = "h2" }),
		opAt(OpRelease, 10*time.Second, 11*time.Second, sp),
	}
	res := noViolations(t, ops)
	if res.Ops != len(ops) || res.Partitions != 1 {
		t.Fatalf("res = %+v, want %d ops in 1 partition", res, len(ops))
	}
}

// A mount window that opens before the export point must still linearize:
// the checker picks the legal instant inside the window.
func TestMountWindowSpanningExportLinearizes(t *testing.T) {
	ops := []Op{
		opAt(OpAllocate, 0, 1*time.Second, func(o *Op) { o.Space = "sp1"; o.Disk = "d1"; o.Size = 64 }),
		opAt(OpMount, 1*time.Second, 5*time.Second, func(o *Op) { o.Space = "sp1"; o.Host = "h1" }),
		opAt(OpExport, 2*time.Second, 2*time.Second, func(o *Op) { o.Space = "sp1"; o.Host = "h1"; o.Client = "h1" }),
	}
	noViolations(t, ops)
}

func TestStaleLeaseDoubleServingRejected(t *testing.T) {
	ops := []Op{
		opAt(OpAllocate, 0, 1*time.Second, func(o *Op) { o.Space = "sp1"; o.Disk = "d1"; o.Size = 64 }),
		opAt(OpExport, 2*time.Second, 2*time.Second, func(o *Op) { o.Space = "sp1"; o.Host = "h1"; o.Client = "h1" }),
		// No revoke at h1: h2 exporting is double serving.
		opAt(OpExport, 5*time.Second, 5*time.Second, func(o *Op) { o.Space = "sp1"; o.Host = "h2"; o.Client = "h2" }),
	}
	res := Check(ops)
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %v, want exactly one", res.Violations)
	}
	if !strings.Contains(res.Violations[0].Msg, "still holds the lease") {
		t.Errorf("message %q does not explain the double lease", res.Violations[0].Msg)
	}
}

func TestStaleMountRejected(t *testing.T) {
	ops := []Op{
		opAt(OpAllocate, 0, 1*time.Second, func(o *Op) { o.Space = "sp1"; o.Disk = "d1"; o.Size = 64 }),
		opAt(OpExport, 2*time.Second, 2*time.Second, func(o *Op) { o.Space = "sp1"; o.Host = "h1"; o.Client = "h1" }),
		opAt(OpRevoke, 3*time.Second, 3*time.Second, func(o *Op) { o.Space = "sp1"; o.Host = "h1"; o.Client = "h1" }),
		opAt(OpExport, 4*time.Second, 4*time.Second, func(o *Op) { o.Space = "sp1"; o.Host = "h2"; o.Client = "h2" }),
		// Client mounts the *old* host strictly after the lease moved.
		opAt(OpMount, 5*time.Second, 6*time.Second, func(o *Op) { o.Space = "sp1"; o.Host = "h1" }),
	}
	res := Check(ops)
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %v, want exactly one", res.Violations)
	}
	if !strings.Contains(res.Violations[0].Msg, "stale-lease double-mount") {
		t.Errorf("message %q does not name the stale-lease double-mount", res.Violations[0].Msg)
	}
}

func TestLookupExtentMismatchRejected(t *testing.T) {
	ops := []Op{
		opAt(OpAllocate, 0, 1*time.Second, func(o *Op) { o.Space = "sp1"; o.Disk = "d1"; o.Offset = 0; o.Size = 64 }),
		opAt(OpLookup, 2*time.Second, 3*time.Second, func(o *Op) { o.Space = "sp1"; o.Disk = "d1"; o.Offset = 128; o.Size = 64 }),
	}
	if res := Check(ops); len(res.Violations) != 1 {
		t.Fatalf("violations = %v, want exactly one (extent mismatch)", res.Violations)
	}
}

func TestDoubleAttachRejected(t *testing.T) {
	disk := func(h string) func(*Op) {
		return func(o *Op) { o.Disk = "d1"; o.Host = h; o.Client = h }
	}
	ops := []Op{
		opAt(OpAttach, 1*time.Second, 1*time.Second, disk("h1")),
		opAt(OpAttach, 2*time.Second, 2*time.Second, disk("h2")),
	}
	if res := Check(ops); len(res.Violations) != 1 {
		t.Fatalf("violations = %v, want exactly one (double attach)", res.Violations)
	}
	ops = []Op{
		opAt(OpAttach, 1*time.Second, 1*time.Second, disk("h1")),
		opAt(OpDetach, 2*time.Second, 2*time.Second, disk("h1")),
		opAt(OpAttach, 3*time.Second, 3*time.Second, disk("h2")),
		opAt(OpPower, 4*time.Second, 4*time.Second, disk("h2")),
		opAt(OpDetach, 5*time.Second, 5*time.Second, disk("h2")),
	}
	noViolations(t, ops)
}

func TestPendingOpsDropped(t *testing.T) {
	pend := opAt(OpMount, 2*time.Second, 0, func(o *Op) { o.Space = "sp1"; o.Host = "h9" })
	pend.Done = false
	ops := []Op{
		opAt(OpAllocate, 0, 1*time.Second, func(o *Op) { o.Space = "sp1"; o.Disk = "d1"; o.Size = 64 }),
		pend,
	}
	res := noViolations(t, ops)
	if res.Ops != 1 {
		t.Fatalf("checked %d ops, want 1 (pending dropped)", res.Ops)
	}
}

// A partition with no Allocate (its reply was lost, or the space predates
// the history) is assumed allocated: exports and mounts must still obey the
// lease discipline but extent checks are skipped.
func TestPartitionWithoutAllocateAssumedAllocated(t *testing.T) {
	ops := []Op{
		opAt(OpExport, 1*time.Second, 1*time.Second, func(o *Op) { o.Space = "sp1"; o.Host = "h1"; o.Client = "h1" }),
		opAt(OpMount, 2*time.Second, 3*time.Second, func(o *Op) { o.Space = "sp1"; o.Host = "h1" }),
		opAt(OpLookup, 4*time.Second, 5*time.Second, func(o *Op) { o.Space = "sp1"; o.Disk = "dX"; o.Offset = 7; o.Size = 9 }),
	}
	noViolations(t, ops)
}

func TestDuplicateRevokeAndReExportLegal(t *testing.T) {
	sp := func(h string) func(*Op) {
		return func(o *Op) { o.Space = "sp1"; o.Host = h; o.Client = h }
	}
	ops := []Op{
		opAt(OpExport, 1*time.Second, 1*time.Second, sp("h1")),
		opAt(OpExport, 2*time.Second, 2*time.Second, sp("h1")), // duplicated RPC
		opAt(OpRevoke, 3*time.Second, 3*time.Second, sp("h1")),
		opAt(OpRevoke, 4*time.Second, 4*time.Second, sp("h1")), // duplicate revoke
		opAt(OpRevoke, 5*time.Second, 5*time.Second, sp("h2")), // revoke of a lease h2 never held
		opAt(OpExport, 6*time.Second, 6*time.Second, sp("h2")),
	}
	noViolations(t, ops)
}

func TestHistoryRecordingAndNilSafety(t *testing.T) {
	var nilH *History
	if tok := nilH.Invoke(Op{Kind: OpMount}); tok != -1 {
		t.Fatalf("nil Invoke token = %d, want -1", tok)
	}
	nilH.Return(-1, nil)
	nilH.Point(Op{Kind: OpExport})
	nilH.BindClock(nil)
	if nilH.Ops() != nil {
		t.Fatal("nil history should stay empty")
	}

	h := NewHistory()
	now := time.Duration(0)
	h.BindClock(func() time.Duration { return now })
	now = 5 * time.Second
	tok := h.Invoke(Op{Kind: OpMount, Client: "c", Space: "sp1"})
	now = 7 * time.Second
	h.Point(Op{Kind: OpExport, Space: "sp1", Host: "h1", Client: "h1"})
	now = 9 * time.Second
	h.Return(tok, func(op *Op) { op.Host = "h1" })
	ops := h.Ops()
	if len(ops) != 2 {
		t.Fatalf("got %d ops, want 2", len(ops))
	}
	m := ops[0]
	if m.Invoke != 5*time.Second || m.Return != 9*time.Second || !m.Done || m.Host != "h1" {
		t.Fatalf("mount op = %+v, want stamped window and filled host", m)
	}
	e := ops[1]
	if e.Invoke != 7*time.Second || e.Return != 7*time.Second || !e.Done {
		t.Fatalf("export op = %+v, want zero-width done window", e)
	}
	noViolations(t, ops)
}

// Violations across partitions come out in sorted partition order so chaos
// reports are deterministic.
func TestViolationOrderDeterministic(t *testing.T) {
	bad := func(spc string) []Op {
		return []Op{
			opAt(OpExport, 1*time.Second, 1*time.Second, func(o *Op) { o.Space = spc; o.Host = "h1"; o.Client = "h1" }),
			opAt(OpExport, 2*time.Second, 2*time.Second, func(o *Op) { o.Space = spc; o.Host = "h2"; o.Client = "h2" }),
		}
	}
	ops := append(bad("zz"), bad("aa")...)
	res := Check(ops)
	if len(res.Violations) != 2 {
		t.Fatalf("violations = %v, want two", res.Violations)
	}
	if res.Violations[0].Partition != "space aa" || res.Violations[1].Partition != "space zz" {
		t.Fatalf("violation order %v not sorted", []string{res.Violations[0].Partition, res.Violations[1].Partition})
	}
}
