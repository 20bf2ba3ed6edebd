package paxos

import (
	"fmt"
	"testing"
	"time"

	"ustore/internal/simnet"
)

// commitBatches proposes count commands through l in batches of ten, settling
// 10 ms after each batch and calling check after each settle.
func commitBatches(c *cluster, l *Node, prefix string, count int, check func()) {
	for i := 0; i < count; i++ {
		l.Propose(Command{ID: fmt.Sprintf("%s%d", prefix, i)}, nil)
		if i%10 == 9 {
			c.settle(10 * time.Millisecond)
			check()
		}
	}
	c.settle(time.Second)
	check()
}

// TestLogBoundedOnHealthyGroup: with every replica applying, each replica's
// log stays at a few hundred slots over 20 000 commits.
func TestLogBoundedOnHealthyGroup(t *testing.T) {
	c := newCluster(t, 3, 2)
	c.settle(2 * time.Second)
	l := c.leader(t)
	const total = 20000
	commitBatches(c, l, "h", total, func() {
		for _, n := range c.nodes {
			if len(n.slots) > 256 {
				t.Fatalf("%s holds %d slots (base %d, applied %d), want <= 256", n.name, len(n.slots), n.base, n.applied)
			}
		}
	})
	for _, name := range c.names {
		if got := len(c.logs[name]); got != total {
			t.Fatalf("%s applied %d of %d", name, got, total)
		}
		if n := c.nodes[name]; n.base < total/2 {
			t.Fatalf("%s truncated only to %d of %d", name, n.base, total)
		}
	}
	c.checkPrefixAgreement(t)
}

// TestStoppedReplicaHoldsFloor: a stopped replica's applied index holds the
// floor, so no replica drops a slot it may still need; once it resumes and
// catches up, truncation starts again.
func TestStoppedReplicaHoldsFloor(t *testing.T) {
	c := newCluster(t, 3, 5)
	c.settle(2 * time.Second)
	l := c.leader(t)
	commitBatches(c, l, "before", 300, func() {})
	var f *Node
	for _, name := range c.names {
		if name != l.name {
			f = c.nodes[name]
			break
		}
	}
	f.Stop()
	held := f.applied
	commitBatches(c, l, "down", 2000, func() {
		for _, n := range c.nodes {
			if n.base > held {
				t.Fatalf("%s truncated to %d past stopped %s's applied %d", n.name, n.base, f.name, held)
			}
		}
	})
	if len(l.slots) < 2000 {
		t.Fatalf("leader holds %d slots while %s is stopped, want the whole backlog", len(l.slots), f.name)
	}
	f.Resume()
	c.settle(5 * time.Second)
	if got := len(c.logs[f.name]); got != 2300 {
		t.Fatalf("%s caught up %d of 2300", f.name, got)
	}
	commitBatches(c, l, "after", 300, func() {})
	for _, n := range c.nodes {
		if n.base <= held || len(n.slots) > 256 {
			t.Fatalf("%s: base %d, %d slots after catch-up, want base past %d and <= 256 slots", n.name, n.base, len(n.slots), held)
		}
	}
	c.checkPrefixAgreement(t)
}

// TestLeaderAfterTruncationRecovers: a leader elected once every replica has
// truncated recovers from its own chosen prefix. It proposes no no-op into a
// chosen slot, and the group goes on committing.
func TestLeaderAfterTruncationRecovers(t *testing.T) {
	c := newCluster(t, 3, 4)
	c.settle(2 * time.Second)
	l1 := c.leader(t)
	commitBatches(c, l1, "a", 1000, func() {})
	chosen := l1.chosenP
	for _, n := range c.nodes {
		if n.base == 0 {
			t.Fatalf("%s never truncated", n.name)
		}
	}
	for _, name := range c.names {
		n := c.nodes[name]
		c.net.Node(name).Handle(func(m simnet.Message) {
			if w, ok := m.Payload.(*simnet.Record[acceptMsg]); ok && w.Msg.Value.IsNoop() && w.Msg.Slot < chosen {
				t.Errorf("%s proposed a no-op into chosen slot %d", c.net.Name(m.From), w.Msg.Slot)
			}
			n.dispatch(m)
		})
	}
	l1.Stop()
	c.settle(3 * time.Second)
	l2 := c.leader(t)
	commitBatches(c, l2, "b", 300, func() {})
	for _, name := range c.names {
		if name == l1.name {
			continue
		}
		if got := len(c.logs[name]); got != 1300 {
			t.Fatalf("%s applied %d of 1300", name, got)
		}
	}
	c.checkPrefixAgreement(t)
}

// TestRequestBelowFloorAnsweredFromFloor: a prepare or catch-up request from
// below the floor is a stale duplicate whose sender holds every slot below
// it. The reply carries only slots at or above the floor, and is charged the
// size a reply from the requested slot would have had, so truncation moves
// no delivery time.
func TestRequestBelowFloorAnsweredFromFloor(t *testing.T) {
	c := newCluster(t, 3, 2)
	c.settle(2 * time.Second)
	l := c.leader(t)
	commitBatches(c, l, "x", 1000, func() {})
	if l.base == 0 {
		t.Fatal("leader never truncated")
	}
	var f string
	for _, name := range c.names {
		if name != l.name {
			f = name
			break
		}
	}
	var got []simnet.Message
	c.net.Node(f).Handle(func(m simnet.Message) {
		switch m.Payload.(type) {
		case catchupResp, promiseMsg:
			got = append(got, m)
		}
	})
	l.onCatchupReq(c.net.Addr(f), catchupReq{FromSlot: 0})
	l.onPrepare(c.net.Addr(f), prepareMsg{Ballot: l.promised, FromSlot: 0})
	c.settle(10 * time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("got %d replies, want a catch-up page and a promise", len(got))
	}
	var slots []wireSlot
	for _, m := range got {
		switch p := m.Payload.(type) {
		case catchupResp:
			if want := 64 + 256*64; m.Size != want {
				t.Errorf("catch-up reply charged %d bytes, want the full page's %d", m.Size, want)
			}
			slots = append(slots, p.Entries...)
		case promiseMsg:
			if want := 64 + l.base*32 + len(p.Accepted)*32; m.Size != want {
				t.Errorf("promise charged %d bytes, want %d", m.Size, want)
			}
			slots = append(slots, p.Accepted...)
		}
	}
	for _, ws := range slots {
		if ws.Slot < l.base {
			t.Fatalf("reply carries slot %d below the floor %d", ws.Slot, l.base)
		}
	}
}
