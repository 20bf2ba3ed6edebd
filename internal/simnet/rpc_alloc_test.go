package simnet

import (
	"errors"
	"fmt"
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

// errRefused is a handler's sentinel refusal, like a standby master's.
var errRefused = errors.New("refused")

// TestRPCErrorReplyAllocs: a warm call that a handler refuses with a
// sentinel error allocates nothing either. The error value rides in the
// reply's payload slot, so the caller gets it without rebuilding it.
func TestRPCErrorReplyAllocs(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	srv := NewRPCNode(n, "srv")
	cli := NewRPCNode(n, "cli")
	ownMachines(n, "srv", "cli")
	srv.Register("refuse", func(string, any) (any, error) { return nil, errRefused })
	done := func(_ any, err error) {
		if err == nil {
			t.Fatal("a refused call succeeded")
		}
	}
	trip := func() {
		cli.Call("srv", "refuse", nil, 0, time.Second, done)
		s.Run()
	}
	for i := 0; i < 64; i++ {
		trip()
	}
	if got := testing.AllocsPerRun(200, trip); got > 0 {
		t.Fatalf("refused RPC round trip allocates %.0f objects, want 0", got)
	}
}

// manyCallers is fleet_churn's RPC shape: 64 callers and 8 echo servers,
// each on a machine of its own. Each trip is one Call to completion, the
// callers taking turns and each turn of all 64 going to the next server, so
// every server keeps a dedup record per caller and prunes them all.
func manyCallers(tb testing.TB) (trip func()) {
	s := simtime.NewScheduler(1)
	n := New(s)
	var srvs [8]string
	var clis [64]*RPCNode
	for i := range srvs {
		srvs[i] = fmt.Sprintf("srv%d", i)
		NewRPCNode(n, srvs[i]).Register("echo", func(_ string, args any) (any, error) { return args, nil })
		ownMachines(n, srvs[i])
	}
	for i := range clis {
		name := fmt.Sprintf("cli%d", i)
		clis[i] = NewRPCNode(n, name)
		ownMachines(n, name)
	}
	args := any("ping")
	done := func(_ any, err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	i := 0
	return func() {
		clis[i%len(clis)].Call(srvs[i/len(clis)%len(srvs)], "echo", args, 0, time.Second, done)
		s.Run()
		i++
	}
}

// TestRPCManyCallersAllocs: with many callers per server, a warm server's
// dedup records allocate nothing either, prunes included.
func TestRPCManyCallersAllocs(t *testing.T) {
	trip := manyCallers(t)
	for i := 0; i < 4*8*pruneEvery; i++ { // every server through four prunes
		trip()
	}
	if got := testing.AllocsPerRun(2*pruneEvery, trip); got > 0 {
		t.Fatalf("RPC round trip among 64 callers and 8 servers allocates %.2f objects, want 0", got)
	}
}

// fabricEcho is rpcEcho on a Fabric's network, whose hop is the engine's
// lookahead. trip runs past the call's timeout, so its event is dropped;
// replies counts the replies.
func fabricEcho(tb testing.TB) (trip func(), replies *int) {
	e, f := newTestFabric(tb)
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

// TestFabricRoundTripAllocs is the round trip on a Fabric's network, where
// nothing allocates either.
func TestFabricRoundTripAllocs(t *testing.T) {
	trip, replies := fabricEcho(t)
	for i := 0; i < 64; i++ {
		trip()
	}
	if got := testing.AllocsPerRun(200, trip); got > 0 {
		t.Fatalf("cross-lane RPC round trip allocates %.0f objects, want 0", got)
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

func BenchmarkRPCManyCallers(b *testing.B) {
	trip := manyCallers(b)
	for i := 0; i < 4*8*pruneEvery; i++ {
		trip()
	}
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
