package paxos

import (
	"fmt"
	"testing"
	"time"
)

// TestDuplicatedMessagesStillSafe runs a quorum where every link delivers
// a third of the messages twice: Paxos must remain safe (duplicate
// Promise/Accepted must not double-count toward quorum decisions) and
// live.
func TestDuplicatedMessagesStillSafe(t *testing.T) {
	c := newCluster(t, 3, 21)
	for i, a := range c.names {
		for _, b := range c.names[i+1:] {
			c.net.SetMachineDupRate(a, b, 0.33)
		}
	}
	c.settle(3 * time.Second)
	l := c.leader(t)
	for i := 0; i < 15; i++ {
		l.Propose(Command{ID: fmt.Sprintf("dup%02d", i)}, nil)
	}
	c.settle(5 * time.Second)
	c.checkPrefixAgreement(t)
	for _, name := range c.names {
		if got := len(c.logs[name]); got != 15 {
			t.Fatalf("%s applied %d commands, want 15", name, got)
		}
		seen := map[string]bool{}
		for _, cmd := range c.logs[name] {
			if seen[cmd.ID] {
				t.Fatalf("%s applied %s twice", name, cmd.ID)
			}
			seen[cmd.ID] = true
		}
	}
}

// TestDuplicationPlusLossPlusCrash combines every fault class at once.
func TestDuplicationPlusLossPlusCrash(t *testing.T) {
	c := newCluster(t, 5, 22)
	for i, a := range c.names {
		for _, b := range c.names[i+1:] {
			c.net.SetMachineDupRate(a, b, 0.2)
			c.net.SetMachineLossRate(a, b, 0.1)
		}
	}
	c.settle(3 * time.Second)
	cmd := 0
	for round := 0; round < 4; round++ {
		for _, n := range c.nodes {
			if !n.stopped && n.IsLeader() {
				n.Propose(Command{ID: fmt.Sprintf("c%02d", cmd)}, nil)
				cmd++
				break
			}
		}
		if round == 1 {
			c.leader(t).Stop()
		}
		c.settle(3 * time.Second)
	}
	for _, n := range c.nodes {
		n.Resume()
	}
	c.settle(10 * time.Second)
	c.checkPrefixAgreement(t)
}

// TestCatchUpPagination: a replica that missed several hundred slots
// catches up through multiple 256-entry pages (one per heartbeat round).
func TestCatchUpPagination(t *testing.T) {
	c := newCluster(t, 3, 24)
	c.settle(2 * time.Second)
	l := c.leader(t)
	var lagger *Node
	for _, n := range c.nodes {
		if n != l {
			lagger = n
			break
		}
	}
	lagger.Stop()
	const total = 700
	for i := 0; i < total; i++ {
		l.Propose(Command{ID: fmt.Sprintf("bulk%04d", i)}, nil)
		if i%50 == 49 {
			c.settle(200 * time.Millisecond) // keep the pipeline flowing
		}
	}
	c.settle(5 * time.Second)
	if got := len(c.logs[l.name]); got != total {
		t.Fatalf("leader applied %d of %d", got, total)
	}
	lagger.Resume()
	c.settle(30 * time.Second)
	if got := len(c.logs[lagger.name]); got != total {
		t.Fatalf("lagger caught up %d of %d", got, total)
	}
	c.checkPrefixAgreement(t)
}

// TestSlowLinkReordering: unequal delays reorder messages between replicas;
// agreement must hold and the slow replica must catch up.
func TestSlowLinkReordering(t *testing.T) {
	c := newCluster(t, 3, 23)
	// m2 is far away: its messages arrive long after everyone else's.
	c.net.SetMachineBrownout("m2", 80*time.Millisecond)
	c.settle(3 * time.Second)
	l := c.leader(t)
	for i := 0; i < 10; i++ {
		l.Propose(Command{ID: fmt.Sprintf("slow%02d", i)}, nil)
	}
	c.settle(5 * time.Second)
	c.checkPrefixAgreement(t)
	if got := len(c.logs["m2"]); got != 10 {
		t.Fatalf("slow replica applied %d, want 10", got)
	}
}
