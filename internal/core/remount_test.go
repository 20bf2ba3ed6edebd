package core

import (
	"fmt"
	"testing"
	"time"

	"ustore/internal/block"
	"ustore/internal/coord"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// mountedOn registers space on cl as mounted from host, as a successful
// Mount leaves it.
func mountedOn(cl *ClientLib, space SpaceID, host string, size int64) *mount {
	m := cl.newMount(space)
	m.host, m.size, m.mounted = host, size, true
	cl.mounts[space] = m
	return m
}

// masterRig is a unit's master replicas and their coord quorum, elected,
// with nothing else on the network. Its periodic work (failure detection,
// election keep-alives, coord sweeps and Paxos heartbeats) runs once an
// hour or less, so an allocation test over a few simulated seconds counts
// only the operation it drives.
type masterRig struct {
	s       *simtime.Scheduler
	net     *simnet.Network
	cfg     Config
	stores  []*coord.Store
	masters []*Master
	nodes   []string // the masters' RPC nodes, the active one first
}

func newMasterRig(t *testing.T) *masterRig {
	t.Helper()
	cfg := DefaultConfig()
	cfg.HeartbeatInterval = time.Hour
	cfg.ElectionTTL = 6 * time.Hour
	cfg.CoordSweepInterval = time.Hour
	cfg.Paxos.HeartbeatInterval = time.Hour
	cfg.Paxos.ElectionTimeoutBase = 4 * time.Hour
	s := simtime.NewScheduler(1)
	r := &masterRig{s: s, net: simnet.New(s), cfg: cfg}
	names := []string{"m0", "m1", "m2"}
	for _, name := range names {
		st := coord.NewStore(r.net, name, names, cfg.Paxos)
		st.SetSweepInterval(cfg.CoordSweepInterval)
		r.stores = append(r.stores, st)
		r.masters = append(r.masters, NewMaster(r.net, name, st, cfg, []string{"ctl:h1", "ctl:h2"}))
	}
	s.RunFor(12 * time.Hour)
	active := r.active()
	if active == nil {
		t.Fatal("no master elected")
	}
	r.nodes = []string{masterNode(active.name)}
	for _, m := range r.masters {
		if m != active {
			r.nodes = append(r.nodes, masterNode(m.name))
		}
	}
	return r
}

func (r *masterRig) active() *Master {
	for _, m := range r.masters {
		if m.Active() {
			return m
		}
	}
	return nil
}

// beat delivers host's heartbeat, naming disks, to the active master.
func (r *masterRig) beat(t *testing.T, host string, seq uint64, disks ...DiskInfo) {
	t.Helper()
	if _, err := r.active().handleHeartbeat(endpointNode(host), HeartbeatArgs{Host: host, Seq: seq, Disks: disks}); err != nil {
		t.Fatal(err)
	}
}

// allocate allocates a space through cl and returns it.
func (r *masterRig) allocate(t *testing.T, cl *ClientLib) SpaceID {
	t.Helper()
	var rep AllocateReply
	var err error = fmt.Errorf("allocate never answered")
	cl.Allocate(1<<20, func(a AllocateReply, e error) { rep, err = a, e })
	r.s.RunFor(5 * time.Second) // the coord commit, and the Export the master sends to no endpoint timing out
	if err != nil {
		t.Fatal(err)
	}
	return rep.Space
}

// TestRemountAttemptAllocs pins a warm remount attempt at no object: the
// mount record holds the attempt, its Lookup args and its completions, the
// master answers the Lookup with the reply it cached on the allocation
// record, and the target refuses the Login without copying the volume name
// out of the frame. The attempt is the soak's steady failover loop: the
// master names a host whose target does not export the space.
func TestRemountAttemptAllocs(t *testing.T) {
	r := newMasterRig(t)
	r.beat(t, "h1", 1, DiskInfo{ID: "disk00", State: DiskOnline})
	cl := NewClientLib(r.net, "prober", "probe-svc", r.cfg, r.nodes)
	space := r.allocate(t, cl)
	block.NewTarget(r.net, "h1") // exports nothing
	answered := 0                // logins the target answered
	cl.ini.OnComplete = func(host, _ string, _ time.Duration, err error) {
		if host == "h1" && err == nil {
			answered++
		}
	}
	m := mountedOn(cl, space, "h1", 1<<20)

	answers := 0
	var ok bool
	done := func(remounted bool) { ok, answers = remounted, answers+1 }
	attempt := func() {
		cl.remount(m, done)
		r.s.RunFor(20 * time.Millisecond)
	}
	for i := 0; i < 16; i++ { // warm the free lists and the master's cached reply
		attempt()
	}
	if n := testing.AllocsPerRun(100, attempt); n != 0 {
		t.Fatalf("a warm remount attempt allocates %v objects, want 0", n)
	}
	if answers != 16+101 || answered != answers || ok || m.remounting {
		t.Fatalf("%d answers to %d logins the target answered (last ok=%v, remounting=%v), want 117 refusals by the target",
			answers, answered, ok, m.remounting)
	}
	if cl.Remounts != 0 {
		t.Fatalf("%d remounts counted for refused logins", cl.Remounts)
	}
}

// TestLookupReplyFollowsHost: the master's cached Lookup reply is rebuilt
// when the space's disk moves to another host or changes state, and served
// again, the same value, while neither changes.
func TestLookupReplyFollowsHost(t *testing.T) {
	r := newMasterRig(t)
	r.beat(t, "h1", 1, DiskInfo{ID: "disk00", State: DiskOnline})
	cl := NewClientLib(r.net, "prober", "probe-svc", r.cfg, r.nodes)
	space := r.allocate(t, cl)
	lookup := func() LookupReply {
		t.Helper()
		var rep LookupReply
		var err error = fmt.Errorf("lookup never answered")
		cl.Lookup(space, func(l LookupReply, e error) { rep, err = l, e })
		r.s.RunFor(20 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rec := r.active().allocs[space]
	if rep := lookup(); rep.Host != "h1" || rep.State != DiskOnline || rep.DiskID != "disk00" || rep.Size != 1<<20 {
		t.Fatalf("lookup = %+v, want disk00 online on h1", rep)
	}
	first := rec.lookup
	if lookup(); rec.lookup != first {
		t.Fatal("an unchanged space's lookup rebuilt its reply")
	}
	r.beat(t, "h1", 2, DiskInfo{ID: "disk00", State: DiskSpunDown})
	if rep := lookup(); rep.Host != "h1" || rep.State != DiskSpunDown {
		t.Fatalf("lookup after spin-down = %+v, want disk00 spun down on h1", rep)
	}
	r.beat(t, "h1", 3)
	r.beat(t, "h2", 1, DiskInfo{ID: "disk00", State: DiskSpunDown})
	if rep := lookup(); rep.Host != "h2" || rep.State != DiskSpunDown {
		t.Fatalf("lookup after the move = %+v, want disk00 on h2", rep)
	}
}

// TestHeartbeatSteadyStateAllocs pins a warm heartbeat at two objects, the
// endpoint's: the beat's disk rows and its boxed args, which a resend or a
// duplicate reads after the next beat is built. The endpoint keeps its
// attached disks sorted and its hint's node name; the active master
// answers with one shared reply and reuses its scratch set, and a standby
// with the reply it cached for the current leader.
func TestHeartbeatSteadyStateAllocs(t *testing.T) {
	r := newMasterRig(t)
	ep := NewEndPoint(r.net, "h1", r.cfg, nil, nil, r.nodes[1:], nil) // standbys first: the hint must come from them
	ep.masters = append(ep.masters, r.nodes[0])
	ep.attached = []string{"disk00", "disk01", "disk02"}
	beat := func() {
		ep.sendHeartbeat()
		r.s.RunFor(20 * time.Millisecond)
	}
	for i := 0; i < 16; i++ { // learn the hint, warm the free lists
		beat()
	}
	if want := r.active().name; ep.activeHint != want || ep.hintNode != masterNode(want) {
		t.Fatalf("endpoint hint %q (node %q), want the active master %q", ep.activeHint, ep.hintNode, want)
	}
	if n := testing.AllocsPerRun(100, beat); n > 2 {
		t.Fatalf("a warm heartbeat allocates %v objects, want at most 2", n)
	}
	hs := r.active().hosts["h1"]
	if hs == nil || hs.lastSeq != ep.hbSeq || len(hs.diskState) != 3 || r.active().diskHost["disk01"] != "h1" {
		t.Fatalf("the active master's view of h1 = %+v, want seq %d and 3 disks", hs, ep.hbSeq)
	}
}

// TestStandbyReplyFollowsLeader: a standby's heartbeat reply names the
// current leader, also after the leadership moved, and is one value while
// the leader stays.
func TestStandbyReplyFollowsLeader(t *testing.T) {
	r := newMasterRig(t)
	old := r.active()
	var standby *Master
	for _, m := range r.masters {
		if m != old {
			standby = m
		}
	}
	hint := func() (string, any) {
		t.Helper()
		res, err := standby.handleHeartbeat("ep:h1", HeartbeatArgs{Host: "h1", Seq: 1})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.(HeartbeatReply)
		if rep.Active {
			t.Fatalf("standby %s answered as the active master", standby.name)
		}
		return rep.ActiveHint, res
	}
	h1, first := hint()
	if _, again := hint(); h1 != old.name || again != first {
		t.Fatalf("standby hint %q, want %q, shared across beats", h1, old.name)
	}
	// The leader's coord replica stops, so its session lapses and another
	// replica wins the election.
	for i, m := range r.masters {
		if m == old {
			r.stores[i].Stop()
		}
	}
	r.s.RunFor(48 * time.Hour)
	next := r.active()
	if next == nil || next == old {
		t.Fatalf("leadership did not move off %s", old.name)
	}
	if h2, _ := hint(); h2 != next.name {
		t.Fatalf("after the leader moved to %s the standby %s still hints %q", next.name, standby.name, h2)
	}
}
