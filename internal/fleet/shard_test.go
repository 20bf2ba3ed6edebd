package fleet

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// TestCommitGuardAnswersOnce: an Allocate whose commit guard answers ErrBusy
// before its coord commit lands gets exactly one reply, and the late commit
// answers no other client. The leader's two followers crash while the
// allocate waits for its commit, so the guard fires first. A second
// allocate then queues, and its commit waits behind the first one's. Once
// the followers restart, both commits land, and the first calls opDone on
// its op a second time. An OK answers only a commit that landed, and each
// op record goes back to the free list once.
func TestCommitGuardAnswersOnce(t *testing.T) {
	f := boot(t, testConfig())
	const k = 0
	lead := f.LeaderReplica(k)
	m := f.Shards[k][lead]
	if !m.store.IsLeader() {
		t.Fatal("the shard leader's coord replica does not lead paxos")
	}
	var vols []string
	for i := 0; len(vols) < 2; i++ {
		if v := fmt.Sprintf("guarded-%d", i); m.routeCheck(v) == nil {
			vols = append(vols, v)
		}
	}
	replies := make([][]error, len(vols))
	var answered *LookupReply // the last OK's
	allocate := func(i int) {
		m.enqueue("Allocate", &VolumeArgs{Volume: vols[i], Size: volSize, Service: "svc"},
			replyFn(func(res any, err error) {
				replies[i] = append(replies[i], err)
				if err != nil {
					return
				}
				answered = res.(*LookupReply)
				if !m.store.Exists(volPath(vols[i])) {
					t.Errorf("%s was answered OK before its own commit landed", vols[i])
				}
			}))
	}
	allocate(0)
	for i := 0; i < ShardReplicas; i++ {
		if i != lead {
			f.CrashReplica(k, i)
		}
	}
	f.Settle(4*electionTTL + time.Second)
	if len(replies[0]) != 1 || replies[0][0] != ErrBusy {
		t.Fatalf("before the commit landed: replies %v, want one ErrBusy", replies[0])
	}
	allocate(1)
	f.Settle(time.Second)
	for i := 0; i < ShardReplicas; i++ {
		if i != lead {
			f.RestartReplica(k, i)
		}
	}
	f.Settle(time.Minute)
	for _, v := range vols {
		if !m.store.Exists(volPath(v)) {
			t.Fatalf("the commit of %s never landed", v)
		}
	}
	if len(replies[0]) != 1 || len(replies[1]) != 1 {
		t.Fatalf("the allocates were answered %d and %d times, want once each",
			len(replies[0]), len(replies[1]))
	}
	// Both volumes may sit on the same disks, but an allocate's reply shares
	// its own record's Disks slice, so the slice tells whose commit answered.
	if replies[1][0] != nil || !sameSlice(answered.Disks, m.vols[vols[1]].Disks) {
		t.Fatalf("%s answered %v %+v, not with its own record's disks", vols[1], replies[1][0], answered)
	}
	if made, idle := m.ops.Counts(); idle != made {
		t.Fatalf("%d op records on the free list of the %d made, with nothing in flight", idle, made)
	}
}

// TestLookupReplyFresh: the leader shares one Lookup reply per record, and
// a Lookup still answers the current Size and Disks after each way a record
// changes: a scheduler repair installs new Disks, a slot move installs the
// record on another shard (whose scheduler then migrates the fragments
// home), and a Release and re-Allocate replace it under the same name.
func TestLookupReplyFresh(t *testing.T) {
	f := boot(t, testConfig())
	r := f.NewRouter("fresh")
	record := func(vol string) VolRecord {
		rec, ok := f.Leader(f.AuthMap().ShardOf(vol)).vols[vol]
		if !ok {
			t.Fatalf("%s has no record at its leader", vol)
		}
		return rec
	}
	check := func(step, vol string) {
		t.Helper()
		var disks []string
		size := int64(-1)
		r.Lookup(vol, func(d []string, s int64, err error) {
			if err != nil {
				t.Fatalf("%s: lookup %s: %v", step, vol, err)
			}
			disks, size = d, s
		})
		f.Settle(time.Second)
		if rec := record(vol); size != rec.Size || !slices.Equal(disks, rec.Disks) {
			t.Fatalf("%s: lookup %s answered size %d disks %v, record has %d %v",
				step, vol, size, disks, rec.Size, rec.Disks)
		}
	}

	// Repair.
	failed := mustAlloc(t, f, r, "vol-repair")[0]
	check("allocated", "vol-repair")
	f.FailDisk(failed)
	f.Settle(2 * time.Minute)
	if slices.Contains(record("vol-repair").Disks, failed) {
		t.Fatalf("vol-repair still on failed disk %s", failed)
	}
	check("repaired", "vol-repair")

	// Slot move, then migrate-home on the new shard.
	const moved = "vol-move"
	mustAlloc(t, f, r, moved)
	check("allocated", moved)
	slot := SlotOf(moved)
	dst := 1 - f.AuthMap().Slots[slot]
	var moveErr error
	f.MoveSlot(slot, dst, func(err error) { moveErr = err })
	f.Settle(time.Second)
	if moveErr != nil || f.AuthMap().Slots[slot] != dst {
		t.Fatalf("slot move: err %v, slot owner %d", moveErr, f.AuthMap().Slots[slot])
	}
	check("moved", moved)
	home := func() bool {
		for _, d := range record(moved).Disks {
			if f.Topo.UnitOfDisk(d).Shard != dst {
				return false
			}
		}
		return true
	}
	if !settleUntilTest(f, 10*time.Second, 3*time.Minute, home) {
		t.Fatal("the new owner never migrated vol-move's fragments home")
	}
	check("migrated home", moved)

	// Release and re-Allocate under the same name.
	mustAllocSize(t, f, r, "vol-again", volSize)
	check("allocated", "vol-again")
	var relErr error
	r.Release("vol-again", func(err error) { relErr = err })
	f.Settle(time.Second)
	if relErr != nil {
		t.Fatalf("release: %v", relErr)
	}
	mustAllocSize(t, f, r, "vol-again", 2*volSize)
	check("re-allocated", "vol-again")
	if record("vol-again").Size != 2*volSize {
		t.Fatal("re-allocate kept the released record")
	}
}

// TestStaleGuardSparesReusedOp: a commit that lands takes its guard out of
// the queue, so the guard cannot answer the next op that reuses the record.
// The first allocate commits at once and its record goes back to the free
// list; 20 s later a second allocate takes that record, and the leader's two
// followers crash, so its commit waits. Only its own guard, 4*electionTTL
// after it was armed, answers it ErrBusy.
func TestStaleGuardSparesReusedOp(t *testing.T) {
	f := boot(t, testConfig())
	const k = 0
	lead := f.LeaderReplica(k)
	m := f.Shards[k][lead]
	var vols []string
	for i := 0; len(vols) < 2; i++ {
		if v := fmt.Sprintf("reused-%d", i); m.routeCheck(v) == nil {
			vols = append(vols, v)
		}
	}
	replies := make([][]error, len(vols))
	allocate := func(i int) {
		m.enqueue("Allocate", &VolumeArgs{Volume: vols[i], Size: volSize, Service: "svc"},
			replyFn(func(_ any, err error) { replies[i] = append(replies[i], err) }))
	}
	allocate(0)
	f.Settle(time.Second)
	if len(replies[0]) != 1 || replies[0][0] != nil {
		t.Fatalf("%s: replies %v, want one OK", vols[0], replies[0])
	}
	if made, idle := m.ops.Counts(); made != 1 || idle != 1 {
		t.Fatalf("%d of %d op records on the free list, want the first allocate's alone", idle, made)
	}
	f.Settle(4*electionTTL/2 - time.Second)
	allocate(1)
	if made, _ := m.ops.Counts(); made != 1 {
		t.Fatal("the second allocate did not reuse the first one's record")
	}
	for i := 0; i < ShardReplicas; i++ {
		if i != lead {
			f.CrashReplica(k, i)
		}
	}
	f.Settle(4*electionTTL - time.Second)
	if len(replies[1]) != 0 {
		t.Fatalf("%s was answered %v before its own guard fired", vols[1], replies[1])
	}
	f.Settle(2 * time.Second)
	if len(replies[1]) != 1 || replies[1][0] != ErrBusy {
		t.Fatalf("%s: replies %v after its guard, want one ErrBusy", vols[1], replies[1])
	}
}

// TestCommittedOpsLeaveNoTimers: a committed op leaves no timer behind.
// After a burst of allocations on an 8-unit fleet and a 1 s settle, the
// fleet's one scheduler holds about as many events as it did idle, not one
// commit guard and one Phase 2 timer per commit.
func TestCommittedOpsLeaveNoTimers(t *testing.T) {
	f := boot(t, testConfig())
	r := f.NewRouter("burst")
	f.Settle(time.Second)
	idle := f.Sched.Pending()
	const burst = 200
	served := 0
	for i := 0; i < burst; i++ {
		r.Allocate(fmt.Sprintf("burst-%03d", i), volSize, "svc", func(disks []string, err error) {
			if err != nil {
				t.Errorf("allocate: %v", err)
			}
			served++
		})
	}
	f.Settle(time.Second)
	if served != burst {
		t.Fatalf("%d of %d allocates served within 1s", served, burst)
	}
	if got := f.Sched.Pending(); got > idle+16 {
		t.Fatalf("%d events pending after %d committed allocates, %d idle", got, burst, idle)
	}
}
