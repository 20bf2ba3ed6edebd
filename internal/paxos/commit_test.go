package paxos

import (
	"strconv"
	"testing"
	"time"

	"ustore/internal/simnet"
)

// commitTrip elects a leader of a 3-replica group and returns a function
// that commits one command through it and waits until every replica applied
// it.
func commitTrip(tb testing.TB) func() {
	c := newCluster(tb, 3, 2)
	c.settle(2 * time.Second)
	l := c.leader(tb)
	next := 0
	return func() {
		next++
		l.Propose(Command{ID: strconv.Itoa(next)}, nil)
		c.settle(5 * time.Millisecond)
		for _, name := range c.names {
			if len(c.logs[name]) != next {
				tb.Fatalf("%s applied %d of %d commands within 5ms", name, len(c.logs[name]), next)
			}
		}
	}
}

// TestLeaderCommitAllocs pins what one commit allocates on a warmed group:
// the command's ID. The accepts, accepteds and chosens are pooled wire
// records, slots are values in a dense log with bitmask acks, and the Phase
// 2 timeout is a recycled record on a pooled event; log growth amortises to
// under one object per commit.
func TestLeaderCommitAllocs(t *testing.T) {
	trip := commitTrip(t)
	for i := 0; i < 1000; i++ { // so timer records and pooled events recycle
		trip()
	}
	if got := testing.AllocsPerRun(400, trip); got > 1 {
		t.Fatalf("a commit allocates %.1f objects, want <= 1", got)
	}
}

func BenchmarkPaxosCommit(b *testing.B) {
	trip := commitTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
}

// TestOneHeartbeatChainAcrossLoseRegain: a leader that loses leadership and
// wins it back before its pending heartbeat fires must keep beating once per
// interval, not start a second chain beside the first.
func TestOneHeartbeatChainAcrossLoseRegain(t *testing.T) {
	c := newCluster(t, 3, 2)
	c.settle(2 * time.Second)
	l := c.leader(t)
	var f *Node
	for _, name := range c.names {
		if name != l.name {
			f = c.nodes[name]
			break
		}
	}
	beats := 0
	c.net.Node(f.name).Handle(func(m simnet.Message) {
		if _, ok := m.Payload.(*simnet.Record[heartbeatMsg]); ok && m.From == l.addr {
			beats++
		}
		f.dispatch(m)
	})
	for cycle := 0; cycle < 3; cycle++ {
		// A nack carrying a higher ballot deposes the leader; it campaigns
		// at once and wins within a few link latencies.
		l.onNack(nackMsg{Ballot: NewBallot(l.promised.Round()+1, f.index)})
		if l.IsLeader() {
			t.Fatal("nack did not depose the leader")
		}
		l.campaign()
		c.settle(20 * time.Millisecond)
		if !l.IsLeader() {
			t.Fatal("leader did not win back its leadership")
		}
	}
	beats = 0
	const window = 2 * time.Second
	c.settle(window)
	if limit := int(window / DefaultConfig().HeartbeatInterval); beats > limit {
		t.Fatalf("%s sent %d heartbeats in %v, want <= %d (one per interval)", l.name, beats, window, limit)
	}
}

// TestChosenSlotsLeaveNoTimers: a chosen slot takes its Phase 2 timer out of
// the queue. After 200 commits on a healthy group the scheduler holds as
// many events as it did idle, and a quiet window one Phase 2 timeout long
// fires about as many events as an idle one: heartbeats and election
// timers, no timer of a chosen slot.
func TestChosenSlotsLeaveNoTimers(t *testing.T) {
	c := newCluster(t, 3, 2)
	c.settle(2 * time.Second)
	l := c.leader(t)
	window := DefaultConfig().PhaseTimeout + 50*time.Millisecond
	quiet := func() uint64 {
		before := c.sched.Fired()
		c.settle(window)
		return c.sched.Fired() - before
	}
	idle, idleFired := c.sched.Pending(), quiet()
	const commits = 200
	for i := 1; i <= commits; i++ {
		l.Propose(Command{ID: strconv.Itoa(i)}, nil)
	}
	c.settle(20 * time.Millisecond)
	for _, name := range c.names {
		if len(c.logs[name]) != commits {
			t.Fatalf("%s applied %d of %d commands", name, len(c.logs[name]), commits)
		}
	}
	if got := c.sched.Pending(); got > idle+2 {
		t.Fatalf("%d events pending after %d commits, %d idle", got, commits, idle)
	}
	if got := quiet(); got > idleFired+10 {
		t.Fatalf("a quiet window after %d commits fired %d events, an idle one %d", commits, got, idleFired)
	}
}
