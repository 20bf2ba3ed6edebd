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

// TestRPCRoundTripAllocs pins what one RPC round trip allocates: the pending
// call, its timeout event and closure, and per message the boxed envelope and
// the delivery closure. Holding the timeout as the *simtime.Event itself
// (not a cancel-func wrapper) is what keeps it at 7.
func TestRPCRoundTripAllocs(t *testing.T) {
	trip := rpcEcho(t)
	for i := 0; i < 64; i++ { // warm the scheduler's pools and the dedup cache
		trip()
	}
	if got := testing.AllocsPerRun(200, trip); got > 7 {
		t.Fatalf("RPC round trip allocates %.0f objects, want <= 7", got)
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
