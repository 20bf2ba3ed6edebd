package model

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
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
	if !strings.Contains(res.Violations[0].Msg, "stale lease double-mount") {
		t.Errorf("message %q does not name the stale lease double-mount", res.Violations[0].Msg)
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
	if op := nilH.Complete(-1); op != nil {
		t.Fatalf("nil Complete returned %+v, want nil", op)
	}
	nilH.Point(Op{Kind: OpExport})
	nilH.BindClock(nil)
	if res := nilH.Check(); !reflect.DeepEqual(res, Result{}) {
		t.Fatalf("nil history checked %+v, want nothing", res)
	}

	h := NewHistory()
	now := time.Duration(0)
	h.BindClock(func() time.Duration { return now })
	now = 5 * time.Second
	tok := h.Invoke(Op{Kind: OpMount, Client: "c", Space: "sp1"})
	now = 7 * time.Second
	h.Point(Op{Kind: OpExport, Space: "sp1", Host: "h1", Client: "h1"})
	now = 9 * time.Second
	h.Complete(tok).Host = "h1"
	if h.n != 2 {
		t.Fatalf("got %d ops, want 2", h.n)
	}
	m := *h.op(0)
	if m.Invoke != 5*time.Second || m.Return != 9*time.Second || !m.Done || m.Host != "h1" {
		t.Fatalf("mount op = %+v, want stamped window and filled host", m)
	}
	e := *h.op(1)
	if e.Invoke != 7*time.Second || e.Return != 7*time.Second || !e.Done {
		t.Fatalf("export op = %+v, want zero-width done window", e)
	}
	noViolations(t, []Op{m, e})
	if res := h.Check(); res.Ops != 2 || res.Partitions != 1 || len(res.Violations) != 0 {
		t.Fatalf("h.Check() = %+v, want 2 ops in 1 clean partition", res)
	}
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

// TestHistoryPageBoundaries records ops across two page boundaries and
// returns the ops on both sides of each: every op keeps its ID, its fields
// and its own stamps.
func TestHistoryPageBoundaries(t *testing.T) {
	h := NewHistory()
	now := time.Duration(0)
	h.BindClock(func() time.Duration { return now })
	const n = 2*pageSize + 100
	boundary := map[int]bool{1023: true, 1024: true, 2047: true, 2048: true}
	for i := 0; i < n; i++ {
		now = time.Duration(i) * time.Millisecond
		op := Op{Kind: OpLookup, Client: fmt.Sprint("c", i), Space: "sp1"}
		if i%2 == 1 && !boundary[i] {
			op.Kind, op.Host = OpExport, "h1"
			h.Point(op)
			continue
		}
		if tok := h.Invoke(op); tok != i {
			t.Fatalf("op %d got token %d", i, tok)
		}
	}
	returned := map[int]time.Duration{}
	now = time.Hour
	for _, id := range []int{1024, 1023, 2048, 2047} {
		now += time.Second
		op := h.Complete(id)
		op.Host = fmt.Sprint("h", op.ID)
		returned[id] = now
	}
	if len(h.pages) != 3 {
		t.Fatalf("%d ops fill %d pages, want 3", n, len(h.pages))
	}
	for _, id := range []int{0, 1, 1022, 1023, 1024, 1025, 2046, 2047, 2048, 2049, n - 1} {
		op := h.op(id)
		inv := time.Duration(id) * time.Millisecond
		if op.ID != id || op.Client != fmt.Sprint("c", id) || op.Invoke != inv {
			t.Fatalf("op %d = %+v, want ID, client and invoke of op %d", id, *op, id)
		}
		switch ret, ok := returned[id]; {
		case id%2 == 1 && !boundary[id]:
			if !op.Done || op.Return != inv || op.Host != "h1" {
				t.Fatalf("point op %d = %+v, want a done zero-width export", id, *op)
			}
		case ok:
			if !op.Done || op.Return != ret || op.Host != fmt.Sprint("h", id) {
				t.Fatalf("returned op %d = %+v, want done at %v with its fill", id, *op, ret)
			}
		default:
			if op.Done || op.Return != 0 {
				t.Fatalf("pending op %d = %+v, want it pending", id, *op)
			}
		}
	}
}

// randomHistory records a seeded history of overlapping client windows and
// endpoint points over a few spaces, disks and hosts, and every 100 steps
// a legal allocate-mount-export on a space of its own, so some partitions
// linearize and some do not. It returns the ops it recorded as a flat copy.
func randomHistory(seed int64, steps int) (*History, []Op) {
	rng := rand.New(rand.NewSource(seed))
	h := NewHistory()
	now := time.Duration(0)
	h.BindClock(func() time.Duration { return now })
	pick := func(prefix string, k int) string { return fmt.Sprint(prefix, rng.Intn(k)) }
	var pending []int
	for i := 0; i < steps; i++ {
		now += time.Duration(1+rng.Intn(5)) * time.Millisecond
		if i%100 == 0 {
			sp := fmt.Sprint("clean", i)
			op := h.Complete(h.Invoke(Op{Kind: OpAllocate, Client: "c0", Space: sp}))
			op.Disk, op.Size = "d9", 64
			mount := h.Invoke(Op{Kind: OpMount, Client: "c0", Space: sp})
			now += time.Millisecond
			h.Point(Op{Kind: OpExport, Client: "h9", Host: "h9", Space: sp})
			h.Complete(mount).Host = "h9"
		}
		switch r := rng.Intn(10); {
		case r < 3 && len(pending) < 4:
			kinds := []Kind{OpAllocate, OpRelease, OpLookup, OpMount, OpRemount}
			pending = append(pending, h.Invoke(Op{Kind: kinds[rng.Intn(len(kinds))], Client: pick("c", 3), Space: pick("sp", 12)}))
		case r < 6 && len(pending) > 0:
			j := rng.Intn(len(pending))
			host, disk := pick("h", 3), pick("d", 4)
			op := h.Complete(pending[j])
			op.Host, op.Disk, op.Size = host, disk, 64
			pending = append(pending[:j], pending[j+1:]...)
		case r < 8:
			kinds := []Kind{OpExport, OpRevoke}
			host := pick("h", 3)
			h.Point(Op{Kind: kinds[rng.Intn(2)], Client: host, Host: host, Space: pick("sp", 12), Disk: pick("d", 4)})
		default:
			kinds := []Kind{OpAttach, OpDetach, OpPower}
			host := pick("h", 3)
			h.Point(Op{Kind: kinds[rng.Intn(3)], Client: host, Host: host, Disk: pick("d", 4), Up: rng.Intn(2) == 0})
		}
	}
	ops := make([]Op, h.n)
	for i := range ops {
		ops[i] = *h.op(i)
	}
	return h, ops
}

// TestHistoryCheckMatchesCheck: checking a history where its pages hold the
// ops gives the same result, field for field, as Check over a flat copy.
func TestHistoryCheckMatchesCheck(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		h, ops := randomHistory(seed, 3*pageSize)
		got, want := h.Check(), Check(ops)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: h.Check() = %+v\nCheck(ops) = %+v", seed, got, want)
		}
		if v := len(want.Violations); v == 0 || v == want.Partitions {
			t.Fatalf("seed %d: %d of %d partitions violate; the comparison needs both kinds",
				seed, v, want.Partitions)
		}
	}
}

// TestHistoryAllocsBoundedByPages: recording allocates what it keeps, the
// pages themselves, and not the copies a growing slice would leave behind.
func TestHistoryAllocsBoundedByPages(t *testing.T) {
	const n = 200_000
	h := NewHistory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			h.Complete(h.Invoke(Op{Kind: OpMount, Client: "c", Space: "sp1"}))
		} else {
			h.Point(Op{Kind: OpExport, Client: "h1", Space: "sp1", Host: "h1"})
		}
	}
	runtime.ReadMemStats(&after)
	kept := float64(len(h.pages)) * float64(unsafe.Sizeof([pageSize]Op{}))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.1*kept {
		t.Fatalf("recording %d ops allocated %.1f MB for %.1f MB of pages, want <= 1.1x",
			n, got/(1<<20), kept/(1<<20))
	}
}

// TestMemoKeyBytes pins the search's memo key bytes — the state's key, "|",
// lo, then ",i" per skipped op — and that building one into a warm buffer
// allocates nothing.
func TestMemoKeyBytes(t *testing.T) {
	spaces, disks := &search[spaceState]{}, &search[diskState]{}
	for _, tc := range []struct {
		key  func() []byte
		want string
	}{
		{func() []byte {
			return spaces.appendMemoKey(nil, spaceState{allocated: true, server: "h1"}, []int{3, 5}, 7)
		}, "atrue rfalse h1|7,3,5"},
		{func() []byte { return spaces.appendMemoKey(nil, spaceState{released: true}, nil, 0) }, "afalse rtrue |0"},
		{func() []byte { return disks.appendMemoKey(nil, diskState{attached: "h2"}, []int{12}, 40) }, "h2|40,12"},
	} {
		if got := string(tc.key()); got != tc.want {
			t.Errorf("memo key %q, want %q", got, tc.want)
		}
	}
	st, skipped := spaceState{allocated: true, server: "host-17"}, []int{101, 102, 103}
	if n := testing.AllocsPerRun(100, func() { spaces.key = spaces.appendMemoKey(spaces.key[:0], st, skipped, 99) }); n != 0 {
		t.Errorf("a memo key allocates %v objects in a warm buffer, want 0", n)
	}
}

// TestMemoFindsEveryKeyOnce: the memo reports a key new exactly once, also
// when keys share a hash chain, and forgets them all on reset.
func TestMemoFindsEveryKeyOnce(t *testing.T) {
	var m memo
	m.reset()
	for round := 0; round < 2; round++ {
		for i := 0; i < 3000; i++ {
			if !m.insert([]byte(fmt.Sprint("k", i))) {
				t.Fatalf("round %d: key %d reported seen before its first insert", round, i)
			}
		}
		for i := 0; i < 3000; i++ {
			if m.insert([]byte(fmt.Sprint("k", i))) {
				t.Fatalf("round %d: key %d reported new twice", round, i)
			}
		}
		m.reset()
	}
	// Two keys forced into one chain: the full compare tells them apart.
	m.entries = append(m.entries, memoEntry{off: 0, len: 1})
	m.arena = append(m.arena, 'x')
	m.heads[maphash.Bytes(memoSeed, []byte("y"))] = 1
	if !m.insert([]byte("y")) || m.insert([]byte("y")) || m.insert([]byte("x")) == false {
		t.Fatal("a hash chain holding another key's bytes answered by hash, not by key")
	}
}

// nearSequential builds the shape chaos histories have: spaces allocated,
// exported, looked up by overlapping clients, mounted, remounted across a
// failover, revoked and released, one space after another, n ops in all.
func nearSequential(n int) []Op {
	ops := make([]Op, 0, n)
	add := func(k Kind, space string, inv, ret int, host string) {
		ops = append(ops, Op{ID: len(ops), Kind: k, Client: "c", Space: space, Disk: "d0", Host: host,
			Size: 1 << 20, Invoke: time.Duration(inv) * time.Millisecond,
			Return: time.Duration(ret) * time.Millisecond, Done: true})
	}
	for sp := 0; len(ops) < n; sp++ {
		name, t := fmt.Sprint("s", sp), sp*1000
		add(OpAllocate, name, t, t+2, "")
		add(OpExport, name, t+3, t+3, "h1")
		add(OpMount, name, t+5, t+12, "h1")
		for l := 0; l < 40 && len(ops) < n-6; l++ {
			add(OpLookup, name, t+20+10*l, t+27+10*l, "")
		}
		add(OpRevoke, name, t+500, t+500, "h1")
		add(OpExport, name, t+600, t+600, "h2")
		add(OpRemount, name, t+590, t+610, "h2")
		add(OpRevoke, name, t+700, t+700, "h2")
		add(OpRelease, name, t+710, t+715, "")
	}
	return ops
}

// TestCheckAllocatesPerBranchNotPerOp: checking a 10 000-op near-sequential
// history costs well under an object per op. The search boxes no state,
// stores no string per memo node and files ops under a struct key, so what
// is left is buffer growth and the rare branch.
func TestCheckAllocatesPerBranchNotPerOp(t *testing.T) {
	ops := nearSequential(10_000)
	res := Check(ops)
	if len(res.Violations) != 0 || res.BudgetExceeded != 0 || res.Ops != len(ops) {
		t.Fatalf("a clean history checked %+v, want all %d ops and no violation", res, len(ops))
	}
	if n := testing.AllocsPerRun(5, func() { Check(ops) }); n > 0.1*float64(len(ops)) {
		t.Fatalf("Check of %d ops allocates %v objects, want at most %v (0.1 per op)", len(ops), n, 0.1*float64(len(ops)))
	}
}
