package paxos

import (
	"fmt"
	"testing"
	"time"

	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// cluster is a test harness around N replicas with per-node applied logs.
type cluster struct {
	sched *simtime.Scheduler
	net   *simnet.Network
	nodes map[string]*Node
	logs  map[string][]Command
	names []string
}

func newCluster(tb testing.TB, n int, seed int64) *cluster {
	tb.Helper()
	s := simtime.NewScheduler(seed)
	net := simnet.New(s)
	c := &cluster{sched: s, net: net, nodes: map[string]*Node{}, logs: map[string][]Command{}}
	for i := 0; i < n; i++ {
		c.names = append(c.names, fmt.Sprintf("m%d", i))
	}
	for _, name := range c.names {
		name := name
		net.Colocate(name, name) // a machine of its own, named like the replica: faults attach to machines
		c.nodes[name] = New(net, name, c.names, DefaultConfig(), func(slot int, cmd Command) {
			c.logs[name] = append(c.logs[name], cmd)
		})
	}
	return c
}

// leader returns the unique live node claiming leadership, failing the test
// if there are several (stale claims are allowed transiently, so callers
// run the scheduler first).
func (c *cluster) leader(t testing.TB) *Node {
	t.Helper()
	var l *Node
	for _, n := range c.nodes {
		if n.stopped || !n.IsLeader() {
			continue
		}
		if l != nil {
			t.Fatalf("two leaders: %s and %s", l.name, n.name)
		}
		l = n
	}
	if l == nil {
		t.Fatal("no leader")
	}
	return l
}

// checkPrefixAgreement verifies every pair of applied logs agree on the
// common prefix — the fundamental RSM safety property.
func (c *cluster) checkPrefixAgreement(t *testing.T) {
	t.Helper()
	for _, a := range c.names {
		for _, b := range c.names {
			la, lb := c.logs[a], c.logs[b]
			m := len(la)
			if len(lb) < m {
				m = len(lb)
			}
			for i := 0; i < m; i++ {
				if la[i].ID != lb[i].ID {
					t.Fatalf("logs diverge at %d: %s has %s, %s has %s", i, a, la[i].ID, b, lb[i].ID)
				}
			}
		}
	}
}

func (c *cluster) settle(d time.Duration) { c.sched.RunFor(d) }

func TestElectsSingleLeader(t *testing.T) {
	c := newCluster(t, 5, 1)
	c.settle(3 * time.Second)
	l := c.leader(t)
	// All nodes agree on the leader.
	for _, n := range c.nodes {
		if i := n.LeaderIndex(); i < 0 || n.Peers()[i] != l.name {
			t.Fatalf("%s believes leader is peer %d of %v, want %s", n.name, i, n.Peers(), l.name)
		}
	}
}

func TestProposeAndApplyInOrder(t *testing.T) {
	c := newCluster(t, 3, 2)
	c.settle(2 * time.Second)
	l := c.leader(t)
	for i := 0; i < 20; i++ {
		l.Propose(Command{ID: fmt.Sprintf("cmd%02d", i), Data: i}, nil)
	}
	c.settle(2 * time.Second)
	for _, name := range c.names {
		if len(c.logs[name]) != 20 {
			t.Fatalf("%s applied %d, want 20", name, len(c.logs[name]))
		}
		for i, cmd := range c.logs[name] {
			if cmd.ID != fmt.Sprintf("cmd%02d", i) {
				t.Fatalf("%s slot %d = %s", name, i, cmd.ID)
			}
		}
	}
	c.checkPrefixAgreement(t)
}

func TestProposeViaFollowerForwards(t *testing.T) {
	c := newCluster(t, 3, 3)
	c.settle(2 * time.Second)
	l := c.leader(t)
	var follower *Node
	for _, n := range c.nodes {
		if n != l {
			follower = n
			break
		}
	}
	applied := -1
	follower.Propose(Command{ID: "via-follower"}, func(slot int) { applied = slot })
	c.settle(2 * time.Second)
	if applied < 0 {
		t.Fatal("forwarded proposal never applied")
	}
	for _, name := range c.names {
		if len(c.logs[name]) != 1 || c.logs[name][0].ID != "via-follower" {
			t.Fatalf("%s log = %v", name, c.logs[name])
		}
	}
}

func TestLeaderFailureElectsNewAndPreservesLog(t *testing.T) {
	c := newCluster(t, 5, 4)
	c.settle(2 * time.Second)
	l1 := c.leader(t)
	for i := 0; i < 5; i++ {
		l1.Propose(Command{ID: fmt.Sprintf("before%d", i)}, nil)
	}
	c.settle(time.Second)
	l1.Stop()
	c.settle(3 * time.Second)
	l2 := c.leader(t)
	if l2 == l1 {
		t.Fatal("dead node still leader")
	}
	for i := 0; i < 5; i++ {
		l2.Propose(Command{ID: fmt.Sprintf("after%d", i)}, nil)
	}
	c.settle(2 * time.Second)
	for _, name := range c.names {
		if name == l1.name {
			continue
		}
		if got := len(c.logs[name]); got != 10 {
			t.Fatalf("%s applied %d, want 10", name, got)
		}
	}
	c.checkPrefixAgreement(t)
}

func TestStoppedLeaderResumesAsFollowerAndCatchesUp(t *testing.T) {
	c := newCluster(t, 3, 5)
	c.settle(2 * time.Second)
	l1 := c.leader(t)
	l1.Propose(Command{ID: "one"}, nil)
	c.settle(time.Second)
	l1.Stop()
	c.settle(3 * time.Second)
	l2 := c.leader(t)
	for i := 0; i < 8; i++ {
		l2.Propose(Command{ID: fmt.Sprintf("while-down%d", i)}, nil)
	}
	c.settle(2 * time.Second)
	l1.Resume()
	c.settle(5 * time.Second)
	if got := len(c.logs[l1.name]); got != 9 {
		t.Fatalf("resumed node applied %d, want 9 (catch-up)", got)
	}
	c.checkPrefixAgreement(t)
	if l1.IsLeader() && l2.IsLeader() {
		t.Fatal("two concurrent leaders after resume")
	}
}

func TestMinorityPartitionCannotChoose(t *testing.T) {
	c := newCluster(t, 5, 6)
	c.settle(2 * time.Second)
	l := c.leader(t)
	// Partition the leader plus one follower away from the other three.
	minority := []string{l.name}
	for _, name := range c.names {
		if name != l.name {
			minority = append(minority, name)
			break
		}
	}
	inMinority := map[string]bool{}
	for _, m := range minority {
		inMinority[m] = true
	}
	for _, a := range c.names {
		for _, b := range c.names {
			if inMinority[a] != inMinority[b] {
				c.net.CutMachines(a, b)
			}
		}
	}
	l.Propose(Command{ID: "minority-cmd"}, nil)
	c.settle(3 * time.Second)
	// The minority leader must not have applied it.
	for _, m := range minority {
		for _, cmd := range c.logs[m] {
			if cmd.ID == "minority-cmd" {
				t.Fatal("minority chose a command")
			}
		}
	}
	// Majority elects its own leader and makes progress.
	var majLeader *Node
	for name, n := range c.nodes {
		if !inMinority[name] && n.IsLeader() {
			majLeader = n
		}
	}
	if majLeader == nil {
		t.Fatal("majority has no leader")
	}
	majLeader.Propose(Command{ID: "majority-cmd"}, nil)
	c.settle(2 * time.Second)
	found := false
	for name := range c.nodes {
		if inMinority[name] {
			continue
		}
		for _, cmd := range c.logs[name] {
			if cmd.ID == "majority-cmd" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("majority failed to choose")
	}
	// Heal: minority adopts the majority's log; the old leader's command
	// may be re-proposed or lost (it was never chosen) — but prefixes agree.
	for _, a := range c.names {
		for _, b := range c.names {
			c.net.HealMachines(a, b)
		}
	}
	c.settle(5 * time.Second)
	c.checkPrefixAgreement(t)
}

func TestLossyNetworkStillAgrees(t *testing.T) {
	c := newCluster(t, 3, 7)
	for i, a := range c.names {
		for _, b := range c.names[i+1:] {
			c.net.SetMachineLossRate(a, b, 0.15)
		}
	}
	c.settle(3 * time.Second)
	// Propose through whichever node believes it leads; retries and
	// re-elections must still converge.
	for i := 0; i < 10; i++ {
		for _, n := range c.nodes {
			if n.IsLeader() {
				n.Propose(Command{ID: fmt.Sprintf("lossy%02d", i)}, nil)
				break
			}
		}
		c.settle(500 * time.Millisecond)
	}
	c.settle(10 * time.Second)
	c.checkPrefixAgreement(t)
	// At least most commands should have made it.
	max := 0
	for _, name := range c.names {
		if len(c.logs[name]) > max {
			max = len(c.logs[name])
		}
	}
	if max < 8 {
		t.Fatalf("only %d commands chosen under 15%% loss", max)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		c := newCluster(t, 3, 42)
		c.settle(2 * time.Second)
		l := c.leader(t)
		for i := 0; i < 5; i++ {
			l.Propose(Command{ID: fmt.Sprintf("d%d", i)}, nil)
		}
		c.settle(2 * time.Second)
		var ids []string
		for _, cmd := range c.logs["m0"] {
			ids = append(ids, cmd.ID)
		}
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestBallotEncoding(t *testing.T) {
	b := NewBallot(7, 3)
	if b.Round() != 7 || b != 7<<16|3 {
		t.Fatalf("ballot %#x: round=%d, want round 7 proposer 3", uint64(b), b.Round())
	}
	if NewBallot(2, 0) <= NewBallot(1, 65535) {
		t.Fatal("higher round must dominate proposer index")
	}
}

func TestNoopFilteredFromApply(t *testing.T) {
	// Force a gap: leader proposes slots, dies before finishing; new
	// leader noop-fills. The no-ops must not reach the applier.
	c := newCluster(t, 3, 9)
	c.settle(2 * time.Second)
	l := c.leader(t)
	l.Propose(Command{ID: "a"}, nil)
	c.settle(time.Second)
	l.Stop()
	c.settle(3 * time.Second)
	l2 := c.leader(t)
	l2.Propose(Command{ID: "b"}, nil)
	c.settle(2 * time.Second)
	for _, name := range c.names {
		for _, cmd := range c.logs[name] {
			if cmd.IsNoop() {
				t.Fatalf("%s applied a noop", name)
			}
		}
	}
	c.checkPrefixAgreement(t)
}

// Safety sweep across many seeds with random failures: prefix agreement and
// single-leader-per-ballot must hold in every run.
func TestSafetySweep(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := newCluster(t, 5, seed)
			c.settle(2 * time.Second)
			rng := c.sched.Rand()
			cmd := 0
			for round := 0; round < 6; round++ {
				// Random chaos: stop/resume a node, cut/heal a link.
				victim := c.nodes[c.names[rng.Intn(len(c.names))]]
				switch rng.Intn(3) {
				case 0:
					victim.Stop()
				case 1:
					victim.Resume()
				case 2:
					a, b := c.names[rng.Intn(5)], c.names[rng.Intn(5)]
					if a != b {
						if rng.Intn(2) == 0 {
							c.net.CutMachines(a, b)
						} else {
							c.net.HealMachines(a, b)
						}
					}
				}
				for _, n := range c.nodes {
					if !n.stopped && n.IsLeader() {
						n.Propose(Command{ID: fmt.Sprintf("s%dc%d", seed, cmd)}, nil)
						cmd++
						break
					}
				}
				c.settle(2 * time.Second)
			}
			// Heal everything, resume everyone, converge.
			for _, a := range c.names {
				for _, b := range c.names {
					c.net.HealMachines(a, b)
				}
			}
			for _, n := range c.nodes {
				n.Resume()
			}
			c.settle(10 * time.Second)
			c.checkPrefixAgreement(t)
		})
	}
}
