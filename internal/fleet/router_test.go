package fleet

import (
	"testing"
	"time"
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
// leader, reply) allocates: the router's op record and boxed args, the
// shard's op and its boxed reply. Calls, messages in flight, async replies
// and events are pooled, and the reply shares the record's disks.
func TestRouterLookupAllocs(t *testing.T) {
	trip := lookupTrip(t)
	for i := 0; i < 400; i++ { // past the RPC timeout, so released timeouts recycle
		trip()
	}
	if got := testing.AllocsPerRun(200, trip); got > 4 {
		t.Fatalf("Lookup round trip allocates %.1f objects, want <= 4", got)
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
