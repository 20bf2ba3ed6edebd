package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func testConfig() Config {
	return Config{Units: 8, Shards: 2, Seed: 7}
}

const volSize = 64 << 20

// boot assembles a fleet and settles until every shard has a leader.
func boot(t testing.TB, cfg Config) *Fleet {
	t.Helper()
	f := New(cfg)
	f.Settle(30 * time.Second)
	for k := 0; k < f.Cfg.Shards; k++ {
		if f.Leader(k) == nil {
			t.Fatalf("shard %d has no leader after boot settle", k)
		}
	}
	return f
}

// mustAlloc drives one allocation to completion and returns its disks.
func mustAlloc(t testing.TB, f *Fleet, r *Router, vol string) []string {
	t.Helper()
	return mustAllocSize(t, f, r, vol, volSize)
}

// mustAllocSize is mustAlloc for a volume of size bytes.
func mustAllocSize(t testing.TB, f *Fleet, r *Router, vol string, size int64) []string {
	t.Helper()
	var got []string
	var gotErr error
	fired := false
	r.Allocate(vol, size, "svc-archive", func(disks []string, err error) {
		fired, got, gotErr = true, disks, err
	})
	f.Settle(20 * time.Second)
	if !fired {
		t.Fatalf("allocate %s never completed", vol)
	}
	if gotErr != nil {
		t.Fatalf("allocate %s: %v", vol, gotErr)
	}
	return got
}

func checkInvariants(t *testing.T, f *Fleet) {
	t.Helper()
	if err := f.ValidateSpread(); err != nil {
		t.Fatalf("spread invariant: %v", err)
	}
	if err := f.ValidateShardMap(); err != nil {
		t.Fatalf("shard-map invariant: %v", err)
	}
	if err := f.ValidateCapacity(); err != nil {
		t.Fatalf("capacity invariant: %v", err)
	}
}

func TestTopologyShape(t *testing.T) {
	cfg := testConfig().withDefaults()
	topo := buildTopology(cfg)
	if len(topo.Units) != 8 || topo.NumDisks != 8*hostsPerUnit*disksPerHost || topo.Racks != 2 {
		t.Fatalf("topology: %d units, %d disks", len(topo.Units), topo.NumDisks)
	}
	for i, u := range topo.Units {
		if u.Shard != i%cfg.Shards {
			t.Fatalf("unit %d owned by shard %d, want %d", i, u.Shard, i%cfg.Shards)
		}
		if u.Rack != fmt.Sprintf("r%02d", i%topo.Racks) {
			t.Fatalf("unit %d in rack %s", i, u.Rack)
		}
	}
	// Hub fan-in: d00..d03 share a hub, d04.. differ.
	a := topo.Disks["u000/h0/d00"]
	b := topo.Disks["u000/h0/d03"]
	c := topo.Disks["u000/h1/d00"]
	if a.Loc.Hub != b.Loc.Hub {
		t.Fatalf("disks 0 and 3 should share a hub: %s vs %s", a.Loc.Hub, b.Loc.Hub)
	}
	if a.Loc.Hub == c.Loc.Hub {
		t.Fatal("disks on different hosts must not share a hub")
	}
	if got := topo.UnitOfDisk("u003/h1/d02"); got == nil || got.ID != "u003" {
		t.Fatalf("UnitOfDisk = %v", got)
	}
	if topo.UnitOfDisk("nope") != nil {
		t.Fatal("UnitOfDisk on unknown disk should be nil")
	}
	if units := topo.ShardUnits(0); strings.Join(units, " ") != "u000 u002 u004 u006" {
		t.Fatalf("ShardUnits(0) = %v", units)
	}
}

func TestShardMapBasics(t *testing.T) {
	m := initialMap(4, [][]string{{"a"}, {"b"}, {"c"}, {"d"}})
	for s := 0; s < NumSlots; s++ {
		if m.Slots[s] != s%4 {
			t.Fatalf("slot %d -> %d, want round-robin", s, m.Slots[s])
		}
	}
	if got := SlotOf("vol-0001"); got != SlotOf("vol-0001") || got < 0 || got >= NumSlots {
		t.Fatalf("SlotOf unstable or out of range: %d", got)
	}
	c := m.Clone()
	c.Slots[0] = 3
	c.Epoch = 9
	if m.Slots[0] == 3 || m.Epoch == 9 {
		t.Fatal("Clone shares state with original")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	rec := VolRecord{Size: 123456, Service: "svc", Disks: []string{"u000/h0/d00", "u001/h1/d03"}}
	got, err := decodeVol(encodeVol(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != rec.Size || got.Service != rec.Service ||
		strings.Join(got.Disks, ",") != strings.Join(rec.Disks, ",") {
		t.Fatalf("volume round trip: %+v != %+v", got, rec)
	}
	empty, err := decodeVol(encodeVol(VolRecord{Size: 1, Service: "s"}))
	if err != nil || len(empty.Disks) != 0 {
		t.Fatalf("empty-disks round trip: %+v, %v", empty, err)
	}

	m := initialMap(2, [][]string{{"x"}, {"y"}})
	m.Epoch = 7
	m.Slots[5] = 1
	back := decodeMap(encodeMap(m), m.Replicas)
	if back == nil || back.Epoch != 7 || back.Slots != m.Slots {
		t.Fatalf("map round trip: %+v", back)
	}
	if decodeMap([]byte("garbage"), nil) != nil {
		t.Fatal("decodeMap should reject garbage")
	}
}

func TestAllocateLookupRelease(t *testing.T) {
	f := boot(t, testConfig())
	r := f.NewRouter("c1")

	disks := mustAlloc(t, f, r, "vol-0001")
	if len(disks) != 3 {
		t.Fatalf("allocated %d fragments, want 3", len(disks))
	}
	units := map[string]bool{}
	for _, d := range disks {
		u := f.Topo.UnitOfDisk(d)
		if u == nil {
			t.Fatalf("unknown disk %s", d)
		}
		if units[u.ID] {
			t.Fatalf("two fragments on unit %s", u.ID)
		}
		units[u.ID] = true
	}
	checkInvariants(t, f)

	var lkDisks []string
	var lkSize int64
	r.Lookup("vol-0001", func(d []string, size int64, err error) {
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		lkDisks, lkSize = d, size
	})
	f.Settle(10 * time.Second)
	sort.Strings(disks)
	sort.Strings(lkDisks)
	if lkSize != volSize || strings.Join(disks, ",") != strings.Join(lkDisks, ",") {
		t.Fatalf("lookup mismatch: %v/%d vs %v/%d", lkDisks, lkSize, disks, volSize)
	}

	released := false
	r.Release("vol-0001", func(err error) {
		if err != nil {
			t.Fatalf("release: %v", err)
		}
		released = true
	})
	f.Settle(10 * time.Second)
	if !released {
		t.Fatal("release never completed")
	}
	for k := 0; k < f.Cfg.Shards; k++ {
		if m := f.Leader(k); m != nil && len(m.vols) != 0 {
			t.Fatalf("shard %d keeps %d volumes after release", k, len(m.vols))
		}
	}
	var lookupErr error
	r.Lookup("vol-0001", func(_ []string, _ int64, err error) { lookupErr = err })
	f.Settle(10 * time.Second)
	if lookupErr == nil {
		t.Fatal("lookup of released volume should fail")
	}
	checkInvariants(t, f)
}

func TestUnitLossDrainsOntoSurvivors(t *testing.T) {
	f := boot(t, testConfig())
	r := f.NewRouter("c1")
	var vols []string
	for i := 0; i < 24; i++ {
		v := fmt.Sprintf("vol-%04d", i)
		mustAlloc(t, f, r, v)
		vols = append(vols, v)
	}
	checkInvariants(t, f)

	const victim = "u000"
	f.KillUnit(victim)
	// Dead-unit declaration (3 x 5s silent) + leader failover for shard 0
	// (its replica 0 lived on u000) + rate-limited repair.
	f.Settle(4 * time.Minute)

	if why := f.DrainBlocker(victim); why != "" {
		t.Fatalf("unit %s not drained after repair window: %s", victim, why)
	}
	checkInvariants(t, f)

	// Every volume must still resolve, with full redundancy, via a fresh
	// client.
	r2 := f.NewRouter("c2")
	for _, v := range vols {
		var got []string
		var gotErr error
		r2.Lookup(v, func(d []string, _ int64, err error) { got, gotErr = d, err })
		f.Settle(15 * time.Second)
		if gotErr != nil {
			t.Fatalf("lookup %s after unit loss: %v", v, gotErr)
		}
		if len(got) != 3 {
			t.Fatalf("volume %s has %d fragments after repair", v, len(got))
		}
		for _, d := range got {
			if f.Topo.UnitOfDisk(d).ID == victim {
				t.Fatalf("volume %s still references dead unit disk %s", v, d)
			}
		}
	}
}

// A scheduler whose per-tick generation outruns its inflight cap must not
// fence the overflow tasks' volumes forever: every generated task launches,
// so finish() always unfences. 4 GiB fragments copy for 16s, so a unit loss
// with more repairs than maxInflight keeps the cap full across ticks.
func TestSchedulerSaturationStillDrains(t *testing.T) {
	f := boot(t, testConfig())
	r := f.NewRouter("c1")
	for i := 0; i < 40; i++ {
		mustAllocSize(t, f, r, fmt.Sprintf("vol-%04d", i), 4<<30)
	}

	const victim = "u000"
	f.KillUnit(victim)
	f.Settle(6 * time.Minute)

	if why := f.DrainBlocker(victim); why != "" {
		t.Fatalf("saturated scheduler never drained %s (tasks fenced but not launched): %s", victim, why)
	}
	for k := 0; k < f.Cfg.Shards; k++ {
		if m := f.Leader(k); m != nil && len(m.sch.pendingVol) != 0 {
			t.Fatalf("shard %d still fences %d volumes after repairs settled", k, len(m.sch.pendingVol))
		}
	}
	checkInvariants(t, f)
}

func TestDiskFailureRepairsAroundIt(t *testing.T) {
	f := boot(t, testConfig())
	r := f.NewRouter("c1")
	disks := mustAlloc(t, f, r, "vol-0001")

	f.FailDisk(disks[0])
	f.Settle(2 * time.Minute)

	var got []string
	r.Lookup("vol-0001", func(d []string, _ int64, err error) {
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		got = d
	})
	f.Settle(10 * time.Second)
	for _, d := range got {
		if d == disks[0] {
			t.Fatalf("fragment still on failed disk %s", d)
		}
	}
	if len(got) != 3 {
		t.Fatalf("%d fragments after repair", len(got))
	}
	checkInvariants(t, f)
}

func TestDrainDiskMovesFragmentsOff(t *testing.T) {
	f := boot(t, testConfig())
	r := f.NewRouter("c1")
	disks := mustAlloc(t, f, r, "vol-0001")

	f.DrainDisk(disks[1])
	f.Settle(2 * time.Minute)

	var got []string
	r.Lookup("vol-0001", func(d []string, _ int64, err error) {
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		got = d
	})
	f.Settle(10 * time.Second)
	for _, d := range got {
		if d == disks[1] {
			t.Fatalf("fragment still on draining disk %s", d)
		}
	}
	checkInvariants(t, f)
}

func TestSlotMoveStaleRetryAndMigration(t *testing.T) {
	f := boot(t, testConfig())
	r := f.NewRouter("c1")
	const vol = "vol-move"
	orig := mustAlloc(t, f, r, vol)
	slot := SlotOf(vol)
	src := f.AuthMap().Slots[slot]
	dst := 1 - src

	var moveErr error
	moved := false
	f.MoveSlot(slot, dst, func(err error) { moved, moveErr = true, err })
	f.Settle(30 * time.Second)
	if !moved || moveErr != nil {
		t.Fatalf("slot move: moved=%v err=%v", moved, moveErr)
	}
	if got := f.AuthMap().Epoch; got != 2 {
		t.Fatalf("map epoch = %d, want 2", got)
	}
	if err := f.ValidateShardMap(); err != nil {
		t.Fatalf("shard-map invariant after move: %v", err)
	}

	// The stale router must be redirected and repaired in one lookup.
	if r.map_.Epoch != 1 {
		t.Fatalf("router unexpectedly refreshed early: epoch %d", r.map_.Epoch)
	}
	var got []string
	r.Lookup(vol, func(d []string, _ int64, err error) {
		if err != nil {
			t.Fatalf("lookup across move: %v", err)
		}
		got = d
	})
	f.Settle(15 * time.Second)
	// The destination's scheduler may already have migrated the fragments
	// home, so only redundancy (not disk identity) is stable here.
	if len(got) != len(orig) {
		t.Fatalf("lookup after move: %v, want %d fragments", got, len(orig))
	}
	if r.map_.Epoch != 2 {
		t.Fatalf("router did not install the new map: epoch %d", r.map_.Epoch)
	}

	// The new owner's scheduler migrates the fragments home and the source
	// shard's export ledger empties.
	f.Settle(3 * time.Minute)
	checkInvariants(t, f)
	dstLeader := f.Leader(dst)
	rec, ok := dstLeader.vols[vol]
	if !ok {
		t.Fatalf("volume missing at destination shard %d", dst)
	}
	for _, d := range rec.Disks {
		if u := f.Topo.UnitOfDisk(d); u.Shard != dst {
			t.Fatalf("fragment %s still on shard %d's unit after migration", d, u.Shard)
		}
	}
	if srcLeader := f.Leader(src); len(srcLeader.exports) != 0 {
		t.Fatalf("source shard still has %d export entries", len(srcLeader.exports))
	}
}

// summary renders the observable end state of a run for byte-stability
// comparison.
func summary(f *Fleet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch=%d fired=%d\n", f.AuthMap().Epoch, f.Sched.Fired())
	for k := 0; k < f.Cfg.Shards; k++ {
		m := f.Leader(k)
		if m == nil {
			fmt.Fprintf(&b, "shard %d: no leader\n", k)
			continue
		}
		ids := make([]string, 0, len(m.vols))
		for id := range m.vols {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, "shard %d leader=%s vols=%d\n", k, m.name, len(ids))
		for _, id := range ids {
			fmt.Fprintf(&b, "  %s -> %s\n", id, strings.Join(m.vols[id].Disks, ","))
		}
	}
	return b.String()
}

// scenario runs a fixed boot/allocate/kill/repair sequence and returns its
// summary.
func scenario(t *testing.T) string {
	t.Helper()
	f := boot(t, testConfig())
	r := f.NewRouter("c1")
	for i := 0; i < 12; i++ {
		mustAlloc(t, f, r, fmt.Sprintf("vol-%04d", i))
	}
	f.KillUnit("u001")
	f.Settle(3 * time.Minute)
	return summary(f)
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := scenario(t)
	b := scenario(t)
	if a != b {
		t.Fatalf("same seed diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Units != 8 || c.Shards != 1 || c.Seed != 1 {
		t.Fatalf("defaults: %+v", c)
	}
	// A zero Config runs on one scheduler and one network.
	f := New(Config{})
	if f.Engine == nil || f.Engine.Part(0) != f.Sched || f.Net.Scheduler() != f.Sched {
		t.Fatalf("zero Config: Engine=%v, Net on %p, want both on Sched %p", f.Engine, f.Net.Scheduler(), f.Sched)
	}
}

// TestUnitPaxosStreams: unit u's Paxos replicas draw their election jitter
// from a stream seeded seed^(1+u), not from the scheduler's. In a fleet
// whose units host one replica each, each group's first leader is the
// replica whose first draw from its unit's stream is smallest, and the
// scheduler's stream is never drawn.
func TestUnitPaxosStreams(t *testing.T) {
	const shards = 4
	for _, seed := range []int64{1, 2} {
		f := New(Config{Units: MinUnits(shards), Shards: shards, Seed: seed})
		f.Settle(9 * time.Second) // past every replica's first election timeout
		for k := 0; k < shards; k++ {
			want, least := -1, int64(math.MaxInt64)
			for i := 0; i < ShardReplicas; i++ {
				u := f.ReplicaUnit(k, i)
				jitter := rand.New(rand.NewSource(seed ^ int64(1+u))).Int63n(int64(paxosConfig.ElectionTimeoutBase))
				if jitter < least {
					want, least = i, jitter
				}
			}
			got := -1
			for i, st := range f.Stores[k] {
				if st.IsLeader() {
					got = i
				}
			}
			if got != want {
				t.Errorf("seed %d: shard %d's Paxos leader is replica %d, want %d, the first to time out on its unit's stream", seed, k, got, want)
			}
		}
		if got, fresh := f.Sched.Rand().Int63(), rand.New(rand.NewSource(seed)).Int63(); got != fresh {
			t.Errorf("seed %d: the scheduler's stream was drawn: next draw %d, want the seed's first %d", seed, got, fresh)
		}
	}
}

// TestBootHeap256Units: a 256-unit fleet boots into at most 20 MB of live
// heap. Its processes share one scheduler, one timer wheel and one
// network; a scheduler per unit held about 43 MB.
func TestBootHeap256Units(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	f := New(Config{Units: 256, Shards: 32, Seed: 1})
	heap := float64(live()-before) / (1 << 20)
	runtime.KeepAlive(f)
	t.Logf("heap after New at 256 units: %.1f MB", heap)
	if heap > 20 {
		t.Fatalf("heap after New at 256 units = %.1f MB, want <= 20", heap)
	}
}

// replyFn adapts a callback to simnet.Replier.
type replyFn func(any, error)

func (f replyFn) Reply(res any, err error) { f(res, err) }

// TestDrainedQueueReleasesOps: a served shardOp must not stay reachable
// through the queue's backing array (the leak Disk.pump had): after the
// leader drains 64 queued lookups whose reply closures each pin 1 MiB,
// the heap is back where it started. And a queue that drains between ops
// keeps its array: a served lookup allocates nothing, not an op
// (recycled), a reply (one "no such volume" value), its args (copied into
// the op), a new queue array or a service-time closure and event.
func TestDrainedQueueReleasesOps(t *testing.T) {
	f := boot(t, testConfig())
	m := f.Leader(0)
	const n, size = 64, 1 << 20
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	done := 0
	vol := ""
	for i, queued := 0, 0; queued < n; i++ {
		vol = fmt.Sprintf("ghost-%d", i)
		if m.routeCheck(vol) != nil {
			continue // another shard's slot
		}
		queued++
		payload := make([]byte, size)
		m.enqueue("Lookup", &VolumeArgs{Volume: vol}, replyFn(func(any, error) { done += len(payload) / size }))
	}
	f.Settle(10 * time.Second)
	if done != n {
		t.Fatalf("served %d of %d queued lookups", done, n)
	}
	after := heap()
	runtime.KeepAlive(f)
	if held := int64(after) - int64(before); held > n*size/4 {
		t.Fatalf("heap holds %d MiB after draining %d ops that each pinned 1 MiB", held>>20, n)
	}

	served := 0
	count := replyFn(func(any, error) { served++ })
	serve := func() {
		m.enqueue("Lookup", &VolumeArgs{Volume: vol}, count)
		f.Settle(opServiceTime)
	}
	serve()
	if got := testing.AllocsPerRun(100, serve); got != 0 {
		t.Fatalf("a served lookup allocates %.1f objects, want 0", got)
	}
	if served != 102 {
		t.Fatalf("served %d of 102 lookups", served)
	}
}

// TestIndexTracksFaultsAndMatchesRebuild drives every writer of the
// leader's placement index — allocation, heartbeat-reported dead and
// draining disks, a unit declared dead, repair and drop re-placement, a
// leader crash and restart, a slot move with migrate-home and FreeForeign —
// and then holds the incrementally maintained state to two recomputations:
// ValidateCapacity (records vs ledger, plus placement.Index.Validate) and a
// fresh rebuild from the replicated tree.
func TestIndexTracksFaultsAndMatchesRebuild(t *testing.T) {
	f := boot(t, testConfig())
	r := f.NewRouter("c1")
	for i := 0; i < 24; i++ {
		mustAlloc(t, f, r, fmt.Sprintf("vol-%04d", i))
	}

	// A dead and a draining disk under shard 0, reported by heartbeat.
	lead := f.Leader(0)
	var held []string
	for id := range lead.vols {
		held = append(held, id)
	}
	sort.Strings(held)
	dead, draining := lead.vols[held[0]].Disks[0], lead.vols[held[1]].Disks[1]
	f.FailDisk(dead)
	f.DrainDisk(draining)
	f.Settle(2 * heartbeatInterval)
	if lead.ix.BadDisks() != 1 || lead.ix.DrainingDisks() != 1 {
		t.Fatalf("after two heartbeats the index counts %d bad and %d draining disks, want 1 and 1",
			lead.ix.BadDisks(), lead.ix.DrainingDisks())
	}

	// u006 belongs to shard 0 and hosts no shard replica: only its disks go.
	f.KillUnit("u006")
	f.Settle(2 * time.Minute)
	if lead.ix.DownUnits() != 1 || !lead.ix.UnitDown(lead.unitNo["u006"]) {
		t.Fatalf("index counts %d down units after u006 went silent, want 1", lead.ix.DownUnits())
	}
	checkInvariants(t, f)

	// The next leader starts from rebuild plus cumulative heartbeats; the
	// restarted replica starts with health cleared.
	old := f.LeaderReplica(0)
	f.CrashReplica(0, old)
	f.Settle(45 * time.Second)
	f.RestartReplica(0, old)
	if m := f.Shards[0][old]; m.ix.BadDisks()+m.ix.DrainingDisks()+m.ix.DownUnits() != 0 {
		t.Fatal("restart kept health marks from the replica's previous life")
	}
	mustAlloc(t, f, r, "vol-after-failover")
	f.Settle(time.Minute)
	lead = f.Leader(0)
	if lead == nil || lead.replica == old {
		t.Fatalf("shard 0 leader after crash = %v, want a survivor", lead)
	}
	if lead.ix.BadDisks() != 1 || lead.ix.DrainingDisks() != 1 || lead.ix.DownUnits() != 1 {
		t.Fatalf("new leader's index counts %d bad, %d draining, %d down; want 1, 1, 1",
			lead.ix.BadDisks(), lead.ix.DrainingDisks(), lead.ix.DownUnits())
	}

	// Move a populated slot to shard 1 and let its scheduler bring the
	// fragments home (export ledger charged, then freed).
	slot := SlotOf(held[2])
	var moveErr error
	moved := false
	f.MoveSlot(slot, 1, func(err error) { moved, moveErr = true, err })
	f.Settle(4 * time.Minute)
	if !moved || moveErr != nil {
		t.Fatalf("slot move: moved=%v err=%v", moved, moveErr)
	}
	if why := f.DrainBlocker("u006"); why != "" {
		t.Fatalf("u006 not drained: %s", why)
	}
	checkInvariants(t, f)

	for k := 0; k < f.Cfg.Shards; k++ {
		m := f.Leader(k)
		live := make([]int64, m.ix.Len())
		var total int64
		for row := range live {
			if row > 0 && m.ix.ID(row-1) >= m.ix.ID(row) {
				t.Fatalf("shard %d ledger out of disk-ID order at %s", k, m.ix.ID(row))
			}
			live[row] = m.ix.Used(row)
			total += live[row]
		}
		if total == 0 {
			t.Fatalf("shard %d has nothing charged; the comparison would be vacuous", k)
		}
		m.rebuild()
		for row, want := range live {
			if got := m.ix.Used(row); got != want {
				t.Fatalf("shard %d disk %s: live index says %d bytes, a fresh rebuild %d",
					k, m.ix.ID(row), want, got)
			}
		}
		if err := m.ix.Validate(); err != nil {
			t.Fatalf("shard %d after rebuild: %v", k, err)
		}
	}
}
