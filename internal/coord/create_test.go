package coord

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"ustore/internal/paxos"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// createTrip elects a leader of a 3-replica store and returns a function
// that creates one fresh znode under /vol through it and waits for the
// commit.
func createTrip(tb testing.TB) func() {
	s := simtime.NewScheduler(1)
	net := simnet.New(s)
	names := []string{"zk0", "zk1", "zk2"}
	stores := make([]*Store, len(names))
	for i, name := range names {
		stores[i] = NewStore(net, name, names, paxos.DefaultConfig())
	}
	s.RunFor(2 * time.Second)
	var leader *Store
	for _, st := range stores {
		if st.IsLeader() {
			leader = st
		}
	}
	if leader == nil {
		tb.Fatal("no coord leader")
	}
	created := 0
	done := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
		created++
	}
	leader.Create("/vol", nil, "", done)
	s.RunFor(5 * time.Millisecond)
	data := []byte("1073741824|svc|u000/h0/d00,u001/h0/d00,u002/h0/d00")
	path := append(make([]byte, 0, 32), "/vol/v"...)
	return func() {
		want := created + 1
		leader.Create(string(strconv.AppendInt(path[:6], int64(want), 10)), data, "", done)
		s.RunFor(5 * time.Millisecond)
		if created != want {
			tb.Fatal("create did not commit within 5ms")
		}
	}
}

// TestCreateAllocs pins what one Create allocates on a warmed group: the
// test's path, the command ID and the boxed op. The paxos messages are
// pooled records, the path is walked in place, a leaf has no children map,
// every replica stores the caller's data slice, and znodes come from
// 64-entry slabs.
func TestCreateAllocs(t *testing.T) {
	trip := createTrip(t)
	for i := 0; i < 1000; i++ { // so timer records and pooled events recycle
		trip()
	}
	if got := testing.AllocsPerRun(400, trip); got > 3 {
		t.Fatalf("a create allocates %.1f objects, want <= 3", got)
	}
}

func BenchmarkCoordCreate(b *testing.B) {
	trip := createTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
}

// TestDataOwnership: the store owns a created or set slice, so a watcher
// sees exactly the stored bytes, and what Get returns is the caller's copy —
// writing it changes no replica's tree.
func TestDataOwnership(t *testing.T) {
	tc := newTestCluster(t, 3, 8)
	st := tc.stores[0]
	var seen [][]byte
	for _, replica := range tc.stores {
		replica.Watch("/k", func(ev Event) { seen = append(seen, ev.Data) })
	}
	mustDo(t, tc, func(done func(error)) { st.Create("/k", []byte("v1"), "", done) })
	mustDo(t, tc, func(done func(error)) { st.Set("/k", []byte("v2"), done) })
	if len(seen) != 6 {
		t.Fatalf("%d watch events, want 6", len(seen))
	}
	for i, data := range seen {
		if want := []string{"v1", "v2"}[i/3]; string(data) != want {
			t.Fatalf("event %d carries %q, want %q", i, data, want)
		}
	}
	got, err := tc.stores[1].Get("/k")
	if err != nil {
		t.Fatal(err)
	}
	copy(got, "XX")
	for _, replica := range tc.stores {
		if data, _ := replica.Get("/k"); !bytes.Equal(data, []byte("v2")) || !bytes.Equal(data, seen[3]) {
			t.Fatalf("%s holds %q after a Get result was written, want %q", replica.name, data, "v2")
		}
	}
}

// TestPingRoundTripAllocs: on a warmed group a session ping and its ack
// allocate nothing. A replica sends the session's one ping record, the
// leader answers with the ack record built beside it, and the leader's
// sweep reuses its buffer of session IDs.
func TestPingRoundTripAllocs(t *testing.T) {
	tc := newTestCluster(t, 3, 1)
	leader := tc.leaderStore(t)
	st := tc.stores[0]
	if st == leader {
		st = tc.stores[1] // a follower, so each ping crosses the network
	}
	mustDo(t, tc, func(done func(error)) { st.CreateSession("sess", time.Hour, done) })
	trip := func() {
		st.Ping("sess")
		tc.sched.RunFor(time.Millisecond)
	}
	for i := 0; i < 5000; i++ { // past several sweeps
		trip()
	}
	if got := testing.AllocsPerRun(1000, trip); got != 0 {
		t.Fatalf("a ping round trip allocates %.2f objects, want 0", got)
	}
	if at, ok := st.LastPingAck("sess"); !ok || at != tc.sched.Now()-time.Millisecond+2*(200*time.Microsecond+128) {
		t.Fatalf("last ack at %v (ok=%v), want the last ping's round trip", at, ok)
	}
}
