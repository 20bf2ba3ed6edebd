package core

import (
	"testing"
	"time"

	"ustore/internal/block"
	"ustore/internal/disk"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// TestReadDiscardSteadyStateAllocations pins a warm ClientLib read at
// nothing: the retry loop runs on a pooled IO record whose op, remount and
// back-off callbacks are bound once per record, under the same pooled
// initiator calls, target and volume IO records and wire frames the hedged
// read uses. The rig is a prober mounted on one healthy target, nothing
// else on the scheduler, so every allocation counted is the read's own.
func TestReadDiscardSteadyStateAllocations(t *testing.T) {
	const size = 256 << 10
	s := simtime.NewScheduler(1)
	net := simnet.New(s)
	cl := NewClientLib(net, "prober", "probe-svc", DefaultConfig(), nil)
	d := disk.New(s, "disk00", disk.DT01ACA300(), disk.AttachFabric)
	d.SpinUp()
	s.Run()
	vol, err := block.NewChecksumDiskVolume(d, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	block.NewTarget(net, "h1").Export("vol", vol)
	cl.ini.Login("h1", "vol", func(_ int64, err error) {
		if err != nil {
			t.Fatalf("login: %v", err)
		}
	})
	mountedOn(cl, "vol", "h1", 1<<30)
	s.Run()

	var readErr error
	reads := 0
	done := func(_ []byte, err error) { readErr, reads = err, reads+1 }
	read := func() {
		cl.ReadDiscard("vol", 0, size, time.Second, done)
		s.Run()
		if readErr != nil {
			t.Fatal(readErr)
		}
	}
	for i := 0; i < 32; i++ { // warm every free list
		read()
	}
	if n := testing.AllocsPerRun(64, read); n != 0 {
		t.Fatalf("a warm ReadDiscard allocates %v objects, want 0", n)
	}
	if want := 32 + 65; reads != want {
		t.Fatalf("done ran %d times for %d reads", reads, want)
	}
	if made, idle := cl.ios.Counts(); made != 1 || idle != 1 {
		t.Fatalf("%d of %d IO records free after sequential reads, want 1 of 1", idle, made)
	}
}

// TestCallMasterSteadyStateAllocations pins a warm Lookup round trip at
// its boxed args: the call record, its reply callback, the typed
// completion and the RPC layer's records are all reused. The master is a
// stub that answers Lookup with a reply boxed once, so the count is the
// client's alone.
func TestCallMasterSteadyStateAllocations(t *testing.T) {
	s := simtime.NewScheduler(1)
	net := simnet.New(s)
	reply := any(LookupReply{Host: "h1", DiskID: "disk00"})
	simnet.NewRPCNode(net, "master0").Register("Lookup", func(string, any) (any, error) { return reply, nil })
	cl := NewClientLib(net, "prober", "probe-svc", DefaultConfig(), []string{"master0"})
	var got LookupReply
	done := func(rep LookupReply, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = rep
	}
	lookup := func() {
		cl.Lookup("vol", done)
		s.Run()
	}
	for i := 0; i < 64; i++ { // warm the scheduler's, the RPC layer's and the client's pools
		lookup()
	}
	if n := testing.AllocsPerRun(200, lookup); n > 1 {
		t.Fatalf("a warm master call allocates %v objects, want at most 1 (its boxed args)", n)
	}
	if made, idle := cl.calls.Counts(); got.Host != "h1" || made != 1 || idle != 1 {
		t.Fatalf("reply %+v with %d of %d call records free, want host h1 and 1 of 1", got, idle, made)
	}
}
