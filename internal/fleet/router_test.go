package fleet

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"ustore/internal/simnet"
)

// lookupTrip boots a fleet holding one volume and returns a function that
// runs one Router.Lookup of it to completion.
func lookupTrip(tb testing.TB) func() {
	f := boot(tb, testConfig())
	r := f.NewRouter("lookup")
	mustAlloc(tb, f, r, "vol-0001")
	served := 0
	done := func(disks []string, _ int64, err error) {
		if err != nil || len(disks) == 0 {
			tb.Fatalf("lookup: disks %v, err %v", disks, err)
		}
		served++
	}
	return func() {
		want := served + 1
		r.Lookup("vol-0001", done)
		f.Settle(10 * time.Millisecond)
		if served != want {
			tb.Fatal("lookup did not complete within 10ms")
		}
	}
}

// TestRouterLookupAllocs pins what a Lookup round trip (router, shard
// leader, reply) allocates: nothing. The request records, the router's and
// the shard's op records, calls, messages in flight, async replies and
// events are recycled, and every Lookup of an unchanged record shares one
// reply.
func TestRouterLookupAllocs(t *testing.T) {
	trip := lookupTrip(t)
	for i := 0; i < 400; i++ { // past the RPC timeout, so released timeouts recycle
		trip()
	}
	if got := testing.AllocsPerRun(200, trip); got != 0 {
		t.Fatalf("Lookup round trip allocates %.1f objects, want 0", got)
	}
}

func BenchmarkRouterLookup(b *testing.B) {
	trip := lookupTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
}

// allocTrip boots a fleet and returns a function that runs one
// Router.Allocate of a fresh volume to completion. The volume names are
// made up front, so the trip allocates only what the Allocate does.
func allocTrip(tb testing.TB, trips int) func() {
	f := boot(tb, testConfig())
	r := f.NewRouter("alloc")
	vols := make([]string, trips)
	for i := range vols {
		vols[i] = fmt.Sprintf("vol-%05d", i)
	}
	served := 0
	done := func(disks []string, err error) {
		if err != nil || len(disks) != replicas {
			tb.Fatalf("allocate: disks %v, err %v", disks, err)
		}
		served++
	}
	return func() {
		want := served + 1
		r.Allocate(vols[served], 1<<20, "svc", done)
		f.Settle(10 * time.Millisecond)
		if served != want {
			tb.Fatal("allocate did not complete within 10ms")
		}
	}
}

// TestRouterAllocateAllocs pins what an Allocate of a new volume allocates
// on a warmed fleet: the record's Disks, its path, its encoding, the boxed
// coord op, the command ID and the record's shared reply, which answers the
// Allocate and every later Lookup. The request and the Paxos messages are
// pooled records, the router's and the shard's op records are recycled,
// the coord callback is bound once per op record, the commit guard's and
// the Phase 2 timer's Events go back to the scheduler when the commit
// lands, and the placement picks go into a buffer the shard keeps.
func TestRouterAllocateAllocs(t *testing.T) {
	const warm, runs = 300, 200
	trip := allocTrip(t, warm+runs+1)
	for i := 0; i < warm; i++ {
		trip()
	}
	if got := testing.AllocsPerRun(runs, trip); got > 6 {
		t.Fatalf("Allocate round trip allocates %.1f objects, want <= 6", got)
	}
}

// TestRouterOpOutlivesLateReply: a router op's record is reused only once
// nothing can reach it. Lookup A's first attempt is answered after its RPC
// timeout, so A retries; Lookup B starts during A's backoff; A's callback
// starts Lookup C, which takes A's record, and A's late first reply lands
// while C is in flight. Each callback fires once, with its own volume's
// disks. The shard is a stand-in whose reply delays the test sets per
// attempt.
func TestRouterOpOutlivesLateReply(t *testing.T) {
	f := New(testConfig())
	r := f.NewRouter("late")
	srv := simnet.NewRPCNode(f.Net, "stand-in")
	r.map_ = &ShardMap{Epoch: r.map_.Epoch, Replicas: [][]string{{srv.Name()}}}
	delays := map[string][]time.Duration{
		"vol-a": {rpcTimeout + 2*time.Second, 0},
		"vol-b": {0},
		"vol-c": {rpcTimeout - 500*time.Millisecond},
	}
	var lateSent time.Duration
	srv.RegisterAsync("Lookup", func(_ string, args any, reply *simnet.AsyncReply) {
		vol := args.(*simnet.Record[VolumeArgs]).Msg.Volume
		if len(delays[vol]) == 0 {
			t.Errorf("unplanned attempt to look up %s", vol)
			return
		}
		d := delays[vol][0]
		delays[vol] = delays[vol][1:]
		f.Sched.After(d, func() {
			if d > rpcTimeout {
				lateSent = f.Sched.Now()
			}
			reply.Reply(&LookupReply{Size: int64(len(vol)), Disks: []string{vol + "/d0"}}, nil)
		})
	})

	calls := map[string]int{}
	finished := map[string]time.Duration{}
	var lookup func(vol string, then func())
	lookup = func(vol string, then func()) {
		r.Lookup(vol, func(disks []string, size int64, err error) {
			calls[vol]++
			finished[vol] = f.Sched.Now()
			if err != nil || len(disks) != 1 || disks[0] != vol+"/d0" || size != int64(len(vol)) {
				t.Errorf("lookup %s answered disks %v size %d err %v", vol, disks, size, err)
			}
			if then != nil {
				then()
			}
		})
	}
	lookup("vol-a", func() { lookup("vol-c", nil) })
	f.Settle(rpcTimeout + 10*time.Millisecond) // A has timed out and backs off
	if calls["vol-a"] != 0 {
		t.Fatal("lookup A finished before its first attempt timed out")
	}
	lookup("vol-b", nil)
	f.Settle(10 * time.Second)

	for _, vol := range []string{"vol-a", "vol-b", "vol-c"} {
		if calls[vol] != 1 {
			t.Errorf("lookup %s answered %d times, want 1", vol, calls[vol])
		}
	}
	if !(finished["vol-a"] < lateSent && lateSent < finished["vol-c"]) {
		t.Errorf("A finished at %v, its late reply was sent at %v, C finished at %v: "+
			"the late reply did not land while C held A's record",
			finished["vol-a"], lateSent, finished["vol-c"])
	}
}

// TestLateRequestKeepsItsVolume: a request that arrives after its op has
// finished still names its own volume. Lookup A's first request sits in a
// brownout past the RPC timeout; the brownout lifts, A's retry is answered,
// and A's callback starts Lookup B, which takes A's op record. A's first
// request then reaches the stand-in shard, and must still ask for A.
func TestLateRequestKeepsItsVolume(t *testing.T) {
	f := New(testConfig())
	r := f.NewRouter("late")
	srv := simnet.NewRPCNode(f.Net, "stand-in")
	f.Net.Colocate(srv.Name(), "mach-stand-in")
	r.map_ = &ShardMap{Epoch: r.map_.Epoch, Replicas: [][]string{{srv.Name()}}}
	var arrived []string
	srv.Register("Lookup", func(_ string, args any) (any, error) {
		vol := args.(*simnet.Record[VolumeArgs]).Msg.Volume
		arrived = append(arrived, vol)
		return &LookupReply{Size: int64(len(vol)), Disks: []string{vol + "/d0"}}, nil
	})

	var answered []string
	check := func(vol string, then func()) func([]string, int64, error) {
		return func(disks []string, size int64, err error) {
			answered = append(answered, vol)
			if err != nil || len(disks) != 1 || disks[0] != vol+"/d0" || size != int64(len(vol)) {
				t.Errorf("lookup %s answered disks %v size %d err %v", vol, disks, size, err)
			}
			if then != nil {
				then()
			}
		}
	}
	f.Net.SetMachineBrownout("mach-stand-in", rpcTimeout+2*time.Second)
	r.Lookup("vol-a", check("vol-a", func() {
		if _, idle := r.ops.Counts(); idle != 1 {
			t.Errorf("%d op records free when A finished, want A's", idle)
		}
		r.Lookup("vol-b", check("vol-b", nil))
	}))
	f.Settle(time.Millisecond)
	f.Net.SetMachineBrownout("mach-stand-in", 0)
	f.Settle(rpcTimeout + time.Second)
	if want := []string{"vol-a", "vol-b"}; !slices.Equal(answered, want) || !slices.Equal(arrived, want) {
		t.Fatalf("before the late request: answered %v, arrived %v, want %v each", answered, arrived, want)
	}
	f.Settle(5 * time.Second)
	if want := []string{"vol-a", "vol-b", "vol-a"}; !slices.Equal(arrived, want) {
		t.Fatalf("requests arrived for %v, want %v: the late request lost its volume", arrived, want)
	}
	if made, idle := r.reqs.Counts(); made != 2 || idle != 2 {
		t.Fatalf("router made %d request records and has %d back, want 2 and 2", made, idle)
	}
}
