package paxos

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// poisonWire makes every released wire record garbage from now on: a ballot
// above any real one, slots below the log and a foreign command. A handler
// that read a record after it went home would act on that garbage. It
// returns the function that undoes it. Tests that use it must not run in
// parallel with other tests.
func poisonWire() (restore func()) {
	const bad = Ballot(1 << 62)
	poisoned := Command{ID: "poisoned"}
	simnet.RecordPoison = func(msg any) {
		switch m := msg.(type) {
		case *acceptMsg:
			*m = acceptMsg{Ballot: bad, Slot: -1, Value: poisoned, Floor: -1}
		case *acceptedMsg:
			*m = acceptedMsg{Ballot: bad, Slot: -1, Applied: -1}
		case *chosenMsg:
			*m = chosenMsg{Slot: -1, Value: poisoned}
		case *heartbeatMsg:
			*m = heartbeatMsg{Ballot: bad, ChosenPrefix: -1, Floor: -1}
		}
	}
	return func() { simnet.RecordPoison = nil }
}

// runWireSeed runs three replicas whose links duplicate every message and
// lose one in ten, one replica stopped and resumed, and returns each
// replica's applied (slot, ID) sequence.
func runWireSeed(seed int64) string {
	s := simtime.NewScheduler(seed)
	net := simnet.New(s)
	names := []string{"m0", "m1", "m2"}
	nodes := make([]*Node, len(names))
	applied := make([]bytes.Buffer, len(names))
	for i, name := range names {
		i := i
		net.Colocate(name, name)
		nodes[i] = New(net, name, names, DefaultConfig(), func(slot int, cmd Command) {
			fmt.Fprintf(&applied[i], " %d:%s", slot, cmd.ID)
		})
	}
	for i, a := range names {
		for _, b := range names[i+1:] {
			net.SetMachineDupRate(a, b, 1)
			net.SetMachineLossRate(a, b, 0.1)
		}
	}
	s.RunFor(2 * time.Second)
	for round := 0; round < 6; round++ {
		switch round {
		case 2:
			nodes[seed%3].Stop()
		case 4:
			nodes[seed%3].Resume()
		}
		for k := 0; k < 8; k++ {
			nodes[k%3].Propose(Command{ID: fmt.Sprintf("r%dc%d", round, k)}, nil)
		}
		s.RunFor(time.Second)
	}
	s.RunFor(10 * time.Second)
	var out bytes.Buffer
	for i, name := range names {
		fmt.Fprintf(&out, "%s%s\n", name, applied[i].String())
	}
	return out.String()
}

// TestPoisonedWireRecordsSameLog: with every released record overwritten,
// runs where every message is duplicated and some are lost apply the same
// (slot, ID) sequences as without. So no handler reads a record after
// dispatch gives it back, and every duplicate is a record of its own.
func TestPoisonedWireRecordsSameLog(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		plain := runWireSeed(seed)
		restore := poisonWire()
		poisoned := runWireSeed(seed)
		restore()
		if plain != poisoned {
			t.Fatalf("seed %d: poisoned records changed the applied logs\nplain:\n%s\npoisoned:\n%s", seed, plain, poisoned)
		}
		if n := bytes.Count([]byte(plain), []byte(":r")); n < 3*30 {
			t.Fatalf("seed %d: only %d commands applied across the replicas:\n%s", seed, n, plain)
		}
	}
}

// TestDroppedWireRecordsGoHome: a record dropped at a cut or at a down node
// goes back to its sender's list. Once every replica is stopped and nothing
// is in flight, every record each list ever made is on it again.
func TestDroppedWireRecordsGoHome(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(c *cluster, leader, follower string)
	}{
		{"cut", func(c *cluster, l, f string) { c.net.CutMachines(l, f) }},
		{"down", func(c *cluster, _, f string) { c.nodes[f].Stop() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 3, 5)
			c.settle(2 * time.Second)
			l := c.leader(t)
			f := c.names[(l.index+1)%3]
			tc.fault(c, l.name, f)
			for i := 0; i < 50; i++ {
				l.Propose(Command{ID: fmt.Sprintf("c%d", i)}, nil)
				c.settle(20 * time.Millisecond)
			}
			if len(c.logs[l.name]) != 50 {
				t.Fatalf("leader applied %d of 50 commands", len(c.logs[l.name]))
			}
			if c.net.Stats().Dropped == 0 {
				t.Fatal("nothing was dropped")
			}
			for _, n := range c.nodes {
				n.Stop()
			}
			c.settle(time.Second)
			for _, name := range c.names {
				n := c.nodes[name]
				for kind, list := range map[string]interface{ Counts() (int, int) }{
					"accept":    &n.accepts,
					"accepted":  &n.accepteds,
					"chosen":    &n.chosens,
					"heartbeat": &n.beats,
				} {
					if made, idle := list.Counts(); idle != made {
						t.Errorf("%s: %d of the %d %s records it made are home", name, idle, made, kind)
					}
				}
			}
			if made, _ := l.accepts.Counts(); made == 0 {
				t.Fatal("the leader made no accept records")
			}
			if made, _ := l.beats.Counts(); made == 0 {
				t.Fatal("the leader made no heartbeat records")
			}
		})
	}
}
