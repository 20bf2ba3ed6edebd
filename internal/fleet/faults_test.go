package fleet

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// leadingReplicas counts replicas of shard k that believe they lead (split
// brain shows up as >1 here, since believers are inspected directly).
func leadingReplicas(f *Fleet, k int) int {
	n := 0
	for _, m := range f.Shards[k] {
		if m.leading && !m.down {
			n++
		}
	}
	return n
}

// TestCrashRestartReelection crash-stops a shard leader, waits for a
// survivor to take over, restarts the crashed replica, and proves it rejoins
// the group cleanly: one leader, working allocations, invariants intact, and
// the restarted replica able to win leadership again when the new leader
// crashes in turn.
func TestCrashRestartReelection(t *testing.T) {
	f := boot(t, testConfig())
	r := f.NewRouter("c1")
	mustAlloc(t, f, r, "vol-0001")

	old := f.LeaderReplica(0)
	if old < 0 {
		t.Fatal("shard 0 leaderless after boot")
	}
	f.CrashReplica(0, old)
	if !f.Shards[0][old].down {
		t.Fatal("crashed replica not marked down")
	}
	// Session TTL (10s) + election; give it a comfortable margin.
	f.Settle(45 * time.Second)
	next := f.LeaderReplica(0)
	if next < 0 {
		t.Fatal("no survivor took over shard 0 leadership")
	}
	if next == old {
		t.Fatalf("crashed replica %d still believed leader", old)
	}
	mustAlloc(t, f, r, "vol-0002")

	f.RestartReplica(0, old)
	if f.Shards[0][old].down {
		t.Fatal("restarted replica still marked down")
	}
	f.Settle(45 * time.Second)
	if n := leadingReplicas(f, 0); n != 1 {
		t.Fatalf("%d replicas believe they lead shard 0 after restart, want 1", n)
	}
	checkInvariants(t, f)

	// The restarted replica must be a full member again: crash the current
	// leader and the group (now old + the third replica) must elect one.
	f.CrashReplica(0, next)
	f.Settle(45 * time.Second)
	third := f.LeaderReplica(0)
	if third < 0 || third == next {
		t.Fatalf("no failover after second crash: leader replica %d", third)
	}
	mustAlloc(t, f, r, "vol-0003")
	f.RestartReplica(0, next)
	f.Settle(45 * time.Second)
	if n := leadingReplicas(f, 0); n != 1 {
		t.Fatalf("%d leaders after second restart, want 1", n)
	}
	checkInvariants(t, f)
}

// TestRouterRotationWithPartitionedLeader is the rotation-guard regression
// test for the partition case: the believed leader's unit is ISOLATED, not
// crashed — the stale leader keeps running behind the partition while the
// survivors elect a new one. N concurrent lookups through ONE router all
// time out against the unreachable replica and must not collectively wrap
// the believed index back onto it (N ≡ 0 mod replicas); every lookup must
// land on the new leader within the retry budget.
func TestRouterRotationWithPartitionedLeader(t *testing.T) {
	f := boot(t, testConfig())
	r := f.NewRouter("c1")

	// Allocate 6 volumes that all route to shard 0 (6 ≡ 0 mod 3 replicas —
	// the wrap case the guard exists for).
	var vols []string
	for i := 0; len(vols) < 6; i++ {
		v := fmt.Sprintf("vol-%04d", i)
		if f.AuthMap().ShardOf(v) != 0 {
			continue
		}
		mustAlloc(t, f, r, v)
		vols = append(vols, v)
	}

	lead := f.LeaderReplica(0)
	if lead < 0 {
		t.Fatal("shard 0 leaderless")
	}
	f.IsolateUnit(f.ReplicaUnit(0, lead))
	// Let the survivors notice the lapsed session and elect; the isolated
	// replica still believes it leads behind the partition.
	f.Settle(45 * time.Second)
	next := f.LeaderReplica(0)
	if next < 0 || next == lead {
		t.Fatalf("no reachable leader elected: replica %d (isolated %d)", next, lead)
	}
	if !f.Shards[0][lead].leading {
		t.Log("isolated replica already self-demoted; rotation still exercised via timeouts")
	}

	// All 6 lookups in flight at once through the single stale router.
	okCount, errCount := 0, 0
	for _, v := range vols {
		v := v
		r.Lookup(v, func(disks []string, _ int64, err error) {
			if err != nil || len(disks) == 0 {
				errCount++
				t.Logf("lookup %s: disks=%v err=%v", v, disks, err)
				return
			}
			okCount++
		})
	}
	f.Settle(3 * time.Minute)
	if okCount != len(vols) || errCount != 0 {
		t.Fatalf("%d/%d concurrent lookups succeeded (%d failed) with believed leader partitioned",
			okCount, len(vols), errCount)
	}

	f.RejoinUnit(f.ReplicaUnit(0, lead))
	f.Settle(45 * time.Second)
	if n := leadingReplicas(f, 0); n != 1 {
		t.Fatalf("%d leaders after heal, want 1", n)
	}
	checkInvariants(t, f)
}

// TestRouterUnavailableOnQuorumLoss pins the degradation contract: with a
// shard's quorum gone (2 of 3 replicas crashed), an operation routed to it
// must exhaust the retry budget and surface the typed ErrShardUnavailable —
// detectable with errors.Is, never a hang or an anonymous error. After the
// replicas restart, the same router must work again.
func TestRouterUnavailableOnQuorumLoss(t *testing.T) {
	f := boot(t, testConfig())
	r := f.NewRouter("c1")

	// A volume owned by shard 0.
	vol := ""
	for i := 0; ; i++ {
		v := fmt.Sprintf("vol-%04d", i)
		if f.AuthMap().ShardOf(v) == 0 {
			vol = v
			break
		}
	}

	lead := f.LeaderReplica(0)
	f.CrashReplica(0, lead)
	f.CrashReplica(0, (lead+1)%f.Cfg.ShardReplicas)
	f.Settle(30 * time.Second) // sessions lapse; the survivor cannot win alone

	var gotErr error
	fired := false
	r.Allocate(vol, volSize, "svc-archive", func(_ []string, err error) {
		fired, gotErr = true, err
	})
	// 40 attempts x (3s RPC timeout + retry delay): give the budget room to
	// exhaust fully.
	f.Settle(5 * time.Minute)
	if !fired {
		t.Fatal("allocate against a quorumless shard hung instead of degrading")
	}
	if !errors.Is(gotErr, ErrShardUnavailable) {
		t.Fatalf("want ErrShardUnavailable via errors.Is, got %v", gotErr)
	}

	f.RestartReplica(0, lead)
	f.RestartReplica(0, (lead+1)%f.Cfg.ShardReplicas)
	f.Settle(45 * time.Second)
	mustAlloc(t, f, r, vol)
	checkInvariants(t, f)
}

// TestSchedulerFencingStaleEpoch is the direct fencing check: a task
// completion carrying an epoch older than the scheduler's current one must
// be a complete no-op — no inflight decrement, no volume unfence, no state
// mutation. (Epochs advance on every start(), i.e. every leadership
// acquisition.)
func TestSchedulerFencingStaleEpoch(t *testing.T) {
	f := boot(t, testConfig())
	m := f.Leader(0)
	sch := m.sch

	sch.inflight++
	sch.pendingVol["ghost"] = true
	before := sch.inflight

	sch.finish(task{kind: taskRepair, volume: "ghost"}, sch.epoch-1)
	if sch.inflight != before {
		t.Fatalf("stale-epoch finish touched inflight: %d -> %d", before, sch.inflight)
	}
	if !sch.pendingVol["ghost"] {
		t.Fatal("stale-epoch finish unfenced the volume")
	}

	// The same completion at the current epoch applies normally.
	sch.finish(task{kind: taskRepair, volume: "ghost"}, sch.epoch)
	if sch.inflight != before-1 {
		t.Fatalf("current-epoch finish did not decrement inflight: %d", sch.inflight)
	}
	if sch.pendingVol["ghost"] {
		t.Fatal("current-epoch finish left the volume fenced")
	}
}

// TestSchedulerFencingAcrossFailover is the end-to-end fencing test: a
// repair task launched under scheduler epoch N is still copying when its
// leader crashes and restarts; the replica re-campaigns, leadership (epoch
// N+1) restarts the scheduler, and the stale completion from epoch N fires
// into the new regime. The fence must swallow it — the repair re-runs under
// the new epoch and the capacity ledger stays exact (a double-applied
// completion would double-place fragments and trip ValidateCapacity).
func TestSchedulerFencingAcrossFailover(t *testing.T) {
	cfg := testConfig()
	// ~64 MiB per fragment at 1 MB/s: each repair copy takes over a minute,
	// so the crash below is guaranteed to land mid-task.
	cfg.Scheduler.RepairBytesPerSec = 1e6
	f := boot(t, cfg)
	r := f.NewRouter("c1")
	disks := mustAlloc(t, f, r, "vol-0000")

	// Fail a fragment disk; the owning shard's scheduler starts a slow copy.
	victim := disks[0]
	owner := f.Topo.UnitOfDisk(victim).Shard
	f.FailDisk(victim)
	lead := f.LeaderReplica(owner)
	m := f.Shards[owner][lead]
	epochBefore := m.sch.epoch
	if !settleUntilTest(f, 2*time.Second, time.Minute, func() bool { return m.sch.inflight > 0 }) {
		t.Fatal("repair task never launched")
	}

	// Crash the leader mid-copy and restart it quickly (inside the session
	// TTL), so the same replica can win the next election and its own stale
	// completion fires into its own fresh epoch.
	f.CrashReplica(owner, lead)
	f.Settle(2 * time.Second)
	f.RestartReplica(owner, lead)
	f.Settle(2 * time.Minute)

	if n := leadingReplicas(f, owner); n != 1 {
		t.Fatalf("%d leaders on shard %d after failover", n, owner)
	}
	if cur := f.LeaderReplica(owner); cur == lead && m.sch.epoch <= epochBefore {
		t.Fatalf("replica %d re-elected but scheduler epoch did not advance (%d)",
			lead, m.sch.epoch)
	}

	// The repair must complete under the new epoch with exact books.
	if !settleUntilTest(f, 10*time.Second, 10*time.Minute, func() bool {
		ml := f.Leader(owner)
		if ml == nil {
			return false
		}
		rec, ok := ml.vols["vol-0000"]
		if !ok {
			return false
		}
		for _, d := range rec.Disks {
			if d == victim {
				return false
			}
		}
		return true
	}) {
		t.Fatal("repair never completed after failover")
	}
	checkInvariants(t, f)
}

// settleUntilTest advances the fleet in fixed steps until done() or the
// budget runs out.
func settleUntilTest(f *Fleet, step, max time.Duration, done func() bool) bool {
	for elapsed := time.Duration(0); ; elapsed += step {
		if done() {
			return true
		}
		if elapsed >= max {
			return false
		}
		f.Settle(step)
	}
}
