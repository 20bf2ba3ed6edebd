package coord

import (
	"testing"
	"time"

	"ustore/internal/paxos"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// TestLeaderStepsDownUnderAsymmetricPartition wedges the election's gray
// spot: a leader whose machine can SEND but not RECEIVE keeps refreshing its
// session on the paxos leader (outbound pings arrive), so the leader znode
// never expires on its own — yet the leader is unreachable to every client.
// The ping-ack self-demotion must make it step down within a couple of TTLs
// and go silent so a reachable candidate takes over.
func TestLeaderStepsDownUnderAsymmetricPartition(t *testing.T) {
	const ttl = 2 * time.Second
	s := simtime.NewScheduler(77)
	net := simnet.New(s)
	names := []string{"zk0", "zk1", "zk2"}
	var stores []*Store
	for _, name := range names {
		// Machine placement covers both the paxos node and the coord ping
		// node of each replica.
		net.Colocate(name, "mach-"+name)
		net.Colocate(coordName(name), "mach-"+name)
		stores = append(stores, NewStore(net, name, names, paxos.DefaultConfig()))
	}
	s.RunFor(2 * time.Second)

	leaderIdx := -1
	for i, st := range stores {
		if st.IsLeader() {
			leaderIdx = i
		}
	}
	if leaderIdx < 0 {
		t.Fatal("no paxos leader")
	}

	// Campaign only from the two replicas that are NOT the paxos leader, so
	// the winner's session pings must cross the network — the loopback
	// shortcut would hide the asymmetry this test exists to exercise.
	var cands []*Election
	var candStores []*Store
	for i, st := range stores {
		if i == leaderIdx {
			continue
		}
		e := NewElection(st, "/master", "master-"+st.name, ttl)
		e.Run()
		cands = append(cands, e)
		candStores = append(candStores, st)
	}
	s.RunFor(5 * time.Second)

	w := -1
	for i, e := range cands {
		if e.Leading() {
			if w >= 0 {
				t.Fatal("two leaders")
			}
			w = i
		}
	}
	if w < 0 {
		t.Fatal("no election winner")
	}
	o := 1 - w

	var deposedAt, pingSeen simtime.Time
	deposed, selfDemoted := false, false
	cands[w].OnDeposed = func() {
		deposed = true
		deposedAt = s.Now()
		// Why it stepped down: its own missing-ack check, while the paxos
		// leader was still hearing its pings.
		selfDemoted = cands[w].demoted
		pingSeen = stores[leaderIdx].lastSeen[cands[w].session]
	}

	// One-way fault: both of the winner's nodes are down, so nothing
	// reaches them, loopback included, while everything they send still
	// arrives (a down node still sends).
	deaf := func(down bool) {
		wn := candStores[w].name
		net.Node(wn).SetDown(down)
		net.Node(coordName(wn)).SetDown(down)
	}
	cutAt := s.Now()
	deaf(true)
	s.RunFor(60 * time.Second)

	if cands[w].Leading() {
		t.Fatal("unreachable leader still believes it is leading")
	}
	if !deposed {
		t.Fatal("OnDeposed never fired on the unreachable leader")
	}
	if took := deposedAt - cutAt; took > 2*ttl {
		t.Fatalf("step-down took %v, want <= %v", took, 2*ttl)
	}
	if !selfDemoted {
		t.Fatal("the unreachable leader was deposed by a deletion, not by its missing ping acks")
	}
	if pingSeen <= cutAt {
		t.Fatalf("paxos leader last heard the winner's ping at %v, before the fault at %v: outbound traffic did not flow", pingSeen, cutAt)
	}
	if !cands[o].Leading() {
		t.Fatal("reachable candidate did not take over")
	}

	// Heal: the demoted candidate catches up, learns the deletion, and the
	// cluster converges back to exactly one leader.
	deaf(false)
	s.RunFor(30 * time.Second)
	leaders := 0
	for _, e := range cands {
		if e.Leading() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders after heal = %d, want exactly 1", leaders)
	}
}
