package simnet

import (
	"testing"
	"time"

	"ustore/internal/simtime"
)

func TestColocatedNodesAreLoopback(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	n.Colocate("ep:h1", "h1")
	n.Colocate("blk:h1", "h1")
	n.SetMachineBrownout("h1", time.Second) // must be ignored
	var gotAt simtime.Time = -1
	n.Node("blk:h1").Handle(func(m Message) { gotAt = s.Now() })
	n.Node("ep:h1").Send(n.Addr("blk:h1"), "io", 4<<20)
	s.Run()
	if gotAt != 0 {
		t.Fatalf("loopback delivery at %v, want 0", gotAt)
	}
	if n.Stats().Bytes != 0 {
		t.Fatalf("loopback counted %d network bytes", n.Stats().Bytes)
	}
}

func TestDifferentMachinesUseNetwork(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	n.Colocate("a", "h1")
	n.Colocate("b", "h2")
	var gotAt simtime.Time = -1
	n.Node("b").Handle(func(m Message) { gotAt = s.Now() })
	n.Node("a").Send(n.Addr("b"), "x", 1000)
	s.Run()
	if gotAt <= 0 {
		t.Fatalf("cross-machine delivery at %v, want network delay", gotAt)
	}
	if n.Stats().Bytes != 1000 {
		t.Fatalf("bytes = %d", n.Stats().Bytes)
	}
	if n.Node("a").mach != n.table.machines["h1"] || n.table.node("unassigned").mach != noMachine {
		t.Fatalf("machines wrong: %d %d", n.Node("a").mach, n.table.node("unassigned").mach)
	}
}

func TestUnassignedNodeNotLocalToAssigned(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	n.Colocate("a", "h1")
	// "b" is unassigned; must not be treated as local to anything.
	var gotAt simtime.Time = -1
	n.Node("b").Handle(func(m Message) { gotAt = s.Now() })
	n.Node("a").Send(n.Addr("b"), "x", 0)
	s.Run()
	if gotAt <= 0 {
		t.Fatal("unassigned node treated as loopback")
	}
	// Two unassigned nodes are also remote to each other.
	gotAt = -1
	n.Node("c").Handle(func(m Message) { gotAt = s.Now() })
	n.Node("b").Send(n.Addr("c"), "x", 0)
	s.Run()
	if gotAt <= 0 {
		t.Fatal("two unassigned nodes treated as loopback")
	}
}

func TestColocatedIgnoresLossAndCut(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	n.Colocate("a", "h1")
	n.Colocate("b", "h1")
	// Even a fault record on the machine's own pair cannot touch loopback.
	n.SetMachineLossRate("h1", "h1", 1.0)
	n.CutMachines("h1", "h1")
	got := 0
	n.Node("b").Handle(func(m Message) { got++ })
	n.Node("a").Send(n.Addr("b"), "x", 0)
	s.Run()
	if got != 1 {
		t.Fatal("loopback affected by link loss/cut")
	}
}

func TestDupRateDeliversTwice(t *testing.T) {
	s := simtime.NewScheduler(3)
	n := New(s)
	ownMachines(n, "a", "b")
	n.SetMachineDupRate("mach-a", "mach-b", 1.0)
	got := 0
	n.Node("b").Handle(func(m Message) { got++ })
	n.Node("a").Send(n.Addr("b"), "x", 0)
	s.Run()
	if got != 2 {
		t.Fatalf("delivered %d times with dupRate 1, want 2", got)
	}
}

func TestDupRateValidation(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for dup rate out of range")
		}
	}()
	n.SetMachineDupRate("mach-a", "mach-b", -0.5)
}
