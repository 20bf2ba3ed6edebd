package simnet

import (
	"testing"
	"time"

	"ustore/internal/simtime"
)

func newTestFabric(tb testing.TB) (*simtime.Engine, *Fabric) {
	tb.Helper()
	e := simtime.NewEngine(11, 2, 1, time.Millisecond)
	return e, NewFabric(e)
}

// TestFabricCrossPartitionDelivery: every argument of Fabric.Network names
// one network on the engine's scheduler, whose hop is the engine's
// lookahead.
func TestFabricCrossPartitionDelivery(t *testing.T) {
	e, f := newTestFabric(t)
	na, nb := f.Network(0), f.Network(1)
	if na != nb || na.Scheduler() != e.Part(0) {
		t.Fatal("Fabric.Network(0) and (1) are not the one network on the engine's scheduler")
	}
	na.Node("a")
	var gotAt simtime.Time
	nb.Node("b").Handle(func(msg Message) {
		if nb.Name(msg.From) != "a" || msg.Payload != "ping" {
			t.Errorf("unexpected message %+v", msg)
		}
		gotAt = nb.Scheduler().Now()
	})
	na.Node("a").Send(na.Addr("b"), "ping", 0)
	e.RunFor(time.Second)
	if gotAt != e.Lookahead() {
		t.Fatalf("delivered at %v, want one lookahead %v", gotAt, e.Lookahead())
	}
}

// TestFabricIsolationBothSides: an isolated machine drops a message at the
// send, whichever end it is, and a rejoined one delivers again.
func TestFabricIsolationBothSides(t *testing.T) {
	e, f := newTestFabric(t)
	n := f.Network(0)
	n.Colocate("a", "mach-a")
	n.Colocate("b", "mach-b")
	n.Node("a")
	delivered := 0
	n.Node("b").Handle(func(Message) { delivered++ })

	for i, mach := range []string{"mach-a", "mach-b"} {
		n.IsolateMachine(mach)
		n.Node("a").Send(n.Addr("b"), i, 0)
		if n.Stats().Dropped != uint64(i+1) {
			t.Fatalf("%s isolated: dropped %d at the send, want %d", mach, n.Stats().Dropped, i+1)
		}
		e.RunFor(time.Second)
		n.RejoinMachine(mach)
	}
	n.Node("a").Send(n.Addr("b"), 3, 0)
	e.RunFor(time.Second)
	if delivered != 1 {
		t.Fatalf("after rejoin: delivered=%d, want 1", delivered)
	}
}

// TestFabricSerializationDelay pins the hop: one lookahead plus the
// payload serialized at the link bandwidth.
func TestFabricSerializationDelay(t *testing.T) {
	e, f := newTestFabric(t)
	n := f.Network(0)
	n.Node("a")
	var gotAt simtime.Time
	n.Node("b").Handle(func(Message) { gotAt = n.Scheduler().Now() })
	const size = 125 << 20 // ~1.05 s at 125e6 B/s
	n.Node("a").Send(n.Addr("b"), "bulk", size)
	e.RunFor(5 * time.Second)
	want := e.Lookahead() + time.Duration(float64(size)/linkBandwidth*float64(time.Second))
	if gotAt != want {
		t.Fatalf("%d bytes delivered at %v, want %v (lookahead + serialization)", size, gotAt, want)
	}
}

func TestFabricUnknownDestinationCountsDrop(t *testing.T) {
	e, f := newTestFabric(t)
	na := f.Network(0)
	na.Node("a").Send(na.Addr("nobody"), 1, 0)
	e.RunFor(time.Second)
	if d := na.Stats().Dropped; d != 1 {
		t.Fatalf("Dropped = %d, want 1", d)
	}
}

// TestHopLatency: an RPC between two machines takes the network's hop
// latency plus its size at 125 MB/s each way — 1 ms on a fleet's network,
// 200 µs on New's — and its reply is a control message. A call between
// nodes of one machine is loopback.
func TestHopLatency(t *testing.T) {
	const size = 256 // a fleet control RPC
	serialize := time.Duration(float64(size) / linkBandwidth * float64(time.Second))
	for _, tc := range []struct {
		name string
		net  func(*simtime.Scheduler) *Network
		hop  time.Duration
	}{
		{"unit", New, 200 * time.Microsecond},
		{"fleet", func(s *simtime.Scheduler) *Network { return NewWithLatency(s, time.Millisecond) }, time.Millisecond},
	} {
		s := simtime.NewScheduler(1)
		n := tc.net(s)
		n.Colocate("cli", "m1")
		n.Colocate("peer", "m1")
		n.Colocate("srv", "m2")
		cli := NewRPCNode(n, "cli")
		var servedAt simtime.Time
		for _, name := range []string{"srv", "peer"} {
			NewRPCNode(n, name).Register("echo", func(_ string, args any) (any, error) {
				servedAt = s.Now()
				return args, nil
			})
		}
		for _, to := range []struct {
			name             string
			request, replied time.Duration
		}{{"srv", tc.hop + serialize, 2*tc.hop + serialize}, {"peer", 0, 0}} {
			start := s.Now()
			var repliedAt simtime.Time
			cli.Call(to.name, "echo", 1, size, time.Second, func(_ any, err error) {
				if err != nil {
					t.Errorf("%s: call to %s: %v", tc.name, to.name, err)
				}
				repliedAt = s.Now()
			})
			s.Run()
			if servedAt-start != to.request || repliedAt-start != to.replied {
				t.Errorf("%s: call to %s served after %v and answered after %v, want %v and %v",
					tc.name, to.name, servedAt-start, repliedAt-start, to.request, to.replied)
			}
		}
	}
}
