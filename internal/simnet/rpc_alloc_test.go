package simnet

import (
	"testing"
	"time"

	"ustore/internal/simtime"
)

// rpcEcho is a client and an echo server on machines of their own; trip runs
// one Call to completion: request, handler, reply, callback, cancelled timeout.
func rpcEcho(tb testing.TB) (trip func()) {
	s := simtime.NewScheduler(1)
	n := New(s)
	srv := NewRPCNode(n, "srv")
	cli := NewRPCNode(n, "cli")
	ownMachines(n, "srv", "cli")
	srv.Register("echo", func(_ string, args any) (any, error) { return args, nil })
	args := any("ping") // boxed once: the caller's cost, not the RPC layer's
	done := func(_ any, err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return func() {
		cli.Call("srv", "echo", args, 0, time.Second, done)
		s.Run()
	}
}

// TestRPCRoundTripAllocs pins what one RPC round trip allocates: nothing.
// The pending call and both messages in flight are pooled records that are
// their own event receivers, the envelope rides in Message by value, and the
// cancelled timeout event is released, so it is recycled once dropped.
func TestRPCRoundTripAllocs(t *testing.T) {
	trip := rpcEcho(t)
	for i := 0; i < 64; i++ { // warm the scheduler's pools and the dedup cache
		trip()
	}
	if got := testing.AllocsPerRun(200, trip); got > 0 {
		t.Fatalf("RPC round trip allocates %.0f objects, want 0", got)
	}
}

// fabricEcho is rpcEcho across two partitions of an engine: the request
// and the reply each take a cross-partition record from the destination
// network's pool. trip runs past the call's timeout, so its event is
// dropped; replies counts the replies.
func fabricEcho(tb testing.TB) (trip func(), replies *int) {
	e, f := newTestFabric(tb, 2, 1)
	srv := NewRPCNode(f.Network(1), "srv")
	cli := NewRPCNode(f.Network(0), "cli")
	srv.Register("echo", func(_ string, args any) (any, error) { return args, nil })
	args := any("ping")
	replies = new(int)
	done := func(_ any, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		*replies++
	}
	return func() {
		cli.Call("srv", "echo", args, 0, time.Second, done)
		e.RunFor(2 * time.Second)
	}, replies
}

// TestFabricRoundTripAllocs is the round trip across two partitions, where
// nothing allocates either.
func TestFabricRoundTripAllocs(t *testing.T) {
	trip, replies := fabricEcho(t)
	for i := 0; i < 64; i++ {
		trip()
	}
	if got := testing.AllocsPerRun(200, trip); got > 0 {
		t.Fatalf("cross-partition RPC round trip allocates %.0f objects, want 0", got)
	}
	if *replies != 64+201 {
		t.Fatalf("%d replies, want %d", *replies, 64+201)
	}
}

func BenchmarkRPCRoundTrip(b *testing.B) {
	trip := rpcEcho(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
}

func BenchmarkFabricRoundTrip(b *testing.B) {
	trip, _ := fabricEcho(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
}
