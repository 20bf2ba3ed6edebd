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

func TestFabricCrossPartitionDelivery(t *testing.T) {
	e, f := newTestFabric(t)
	na, nb := f.Network(0), f.Network(1)
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
	if gotAt == 0 {
		t.Fatal("cross-lane message never delivered")
	}
	if gotAt < e.Lookahead() {
		t.Fatalf("delivered at %v, before one lookahead %v", gotAt, e.Lookahead())
	}
	if b := f.table.node("b"); b.net != nb {
		t.Fatalf("b registered on %v, want lane 1's network", b.net)
	}
}

func TestFabricIsolationBothSides(t *testing.T) {
	e, f := newTestFabric(t)
	na, nb := f.Network(0), f.Network(1)
	na.Colocate("a", "mach-a")
	nb.Colocate("b", "mach-b")
	na.Node("a")
	delivered := 0
	nb.Node("b").Handle(func(Message) { delivered++ })

	// Source-side isolation: the drop is counted where the send happened.
	na.IsolateMachine("mach-a")
	na.Node("a").Send(na.Addr("b"), 1, 0)
	e.RunFor(time.Second)
	if delivered != 0 || na.Stats().Dropped != 1 {
		t.Fatalf("after src isolation: delivered=%d srcDropped=%d, want 0,1", delivered, na.Stats().Dropped)
	}
	na.RejoinMachine("mach-a")

	// Destination-side isolation: the message crosses the fabric and is
	// dropped against delivery-time state on the destination lane.
	nb.IsolateMachine("mach-b")
	na.Node("a").Send(na.Addr("b"), 2, 0)
	e.RunFor(time.Second)
	if delivered != 0 || nb.Stats().Dropped != 1 {
		t.Fatalf("after dst isolation: delivered=%d dstDropped=%d, want 0,1", delivered, nb.Stats().Dropped)
	}
	nb.RejoinMachine("mach-b")

	na.Node("a").Send(na.Addr("b"), 3, 0)
	e.RunFor(time.Second)
	if delivered != 1 {
		t.Fatalf("after rejoin: delivered=%d, want 1", delivered)
	}
}

// TestFabricSerializationDelay pins the cross-lane delay: one lookahead
// plus the payload serialized at the link bandwidth.
func TestFabricSerializationDelay(t *testing.T) {
	e, f := newTestFabric(t)
	na, nb := f.Network(0), f.Network(1)
	na.Node("a")
	var gotAt simtime.Time
	nb.Node("b").Handle(func(Message) { gotAt = nb.Scheduler().Now() })
	const size = 125 << 20 // ~1.05 s at 125e6 B/s
	na.Node("a").Send(na.Addr("b"), "bulk", size)
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
