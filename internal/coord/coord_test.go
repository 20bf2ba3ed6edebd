package coord

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"ustore/internal/paxos"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

type testCluster struct {
	sched  *simtime.Scheduler
	net    *simnet.Network
	stores []*Store
}

func newTestCluster(t *testing.T, n int, seed int64) *testCluster {
	t.Helper()
	s := simtime.NewScheduler(seed)
	net := simnet.New(s)
	var names []string
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("zk%d", i))
	}
	tc := &testCluster{sched: s, net: net}
	for _, name := range names {
		tc.stores = append(tc.stores, NewStore(net, name, names, paxos.DefaultConfig()))
	}
	s.RunFor(2 * time.Second) // elect a paxos leader
	return tc
}

func (tc *testCluster) leaderStore(t *testing.T) *Store {
	t.Helper()
	for _, st := range tc.stores {
		if st.IsLeader() {
			return st
		}
	}
	t.Fatal("no coord leader")
	return nil
}

func mustDo(t *testing.T, tc *testCluster, op func(done func(error))) {
	t.Helper()
	var got error = errors.New("pending")
	op(func(err error) { got = err })
	tc.sched.RunFor(2 * time.Second)
	if got != nil {
		t.Fatalf("op failed: %v", got)
	}
}

func TestCreateGetOnAllReplicas(t *testing.T) {
	tc := newTestCluster(t, 3, 1)
	st := tc.stores[0]
	mustDo(t, tc, func(done func(error)) { st.Create("/a", []byte("hello"), "", done) })
	for _, replica := range tc.stores {
		data, err := replica.Get("/a")
		if err != nil || string(data) != "hello" {
			t.Fatalf("%s: data=%q err=%v", replica.name, data, err)
		}
	}
}

func TestCreateValidation(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	st := tc.stores[0]
	mustDo(t, tc, func(done func(error)) { st.Create("/a", nil, "", done) })

	var err error
	st.Create("/a", nil, "", func(e error) { err = e })
	tc.sched.RunFor(time.Second)
	if !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create err = %v", err)
	}
	st.Create("/missing/child", nil, "", func(e error) { err = e })
	tc.sched.RunFor(time.Second)
	if !errors.Is(err, ErrNoParent) {
		t.Fatalf("orphan create err = %v", err)
	}
	st.Create("bad", nil, "", func(e error) { err = e })
	tc.sched.RunFor(time.Second)
	if !errors.Is(err, ErrBadPath) {
		t.Fatalf("bad path err = %v", err)
	}
	st.Create("/eph", nil, "ghost-session", func(e error) { err = e })
	tc.sched.RunFor(time.Second)
	if !errors.Is(err, ErrNoSession) {
		t.Fatalf("ghost session err = %v", err)
	}
}

func TestSetAndDelete(t *testing.T) {
	tc := newTestCluster(t, 3, 3)
	st := tc.stores[0]
	mustDo(t, tc, func(done func(error)) { st.Create("/dir", nil, "", done) })
	mustDo(t, tc, func(done func(error)) { st.Create("/dir/leaf", []byte("v1"), "", done) })
	mustDo(t, tc, func(done func(error)) { st.Set("/dir/leaf", []byte("v2"), done) })
	data, _ := tc.stores[2].Get("/dir/leaf")
	if string(data) != "v2" {
		t.Fatalf("data = %q", data)
	}

	var err error
	st.Delete("/dir", func(e error) { err = e })
	tc.sched.RunFor(time.Second)
	if !errors.Is(err, ErrHasChildren) {
		t.Fatalf("delete non-empty err = %v", err)
	}
	mustDo(t, tc, func(done func(error)) { st.Delete("/dir/leaf", done) })
	mustDo(t, tc, func(done func(error)) { st.Delete("/dir", done) })
	if tc.stores[1].Exists("/dir") {
		t.Fatal("deleted node still exists on replica")
	}
}

func TestChildren(t *testing.T) {
	tc := newTestCluster(t, 3, 4)
	st := tc.stores[0]
	mustDo(t, tc, func(done func(error)) { st.Create("/hosts", nil, "", done) })
	for _, h := range []string{"h3", "h1", "h2"} {
		h := h
		mustDo(t, tc, func(done func(error)) { st.Create("/hosts/"+h, nil, "", done) })
	}
	kids, err := tc.stores[1].Children("/hosts")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"h1", "h2", "h3"}
	if len(kids) != 3 || kids[0] != want[0] || kids[1] != want[1] || kids[2] != want[2] {
		t.Fatalf("children = %v", kids)
	}
}

func TestWatchesFireOnEveryReplica(t *testing.T) {
	tc := newTestCluster(t, 3, 5)
	var events []EventType
	tc.stores[2].Watch("/w", func(ev Event) {
		events = append(events, ev.Type)
	})
	st := tc.stores[0]
	mustDo(t, tc, func(done func(error)) { st.Create("/w", []byte("a"), "", done) })
	mustDo(t, tc, func(done func(error)) { st.Set("/w", []byte("b"), done) })
	mustDo(t, tc, func(done func(error)) { st.Delete("/w", done) })
	if !slices.Equal(events, []EventType{EventCreated, EventDataChanged, EventDeleted}) {
		t.Fatalf("events = %v", events)
	}
}

func TestChildWatches(t *testing.T) {
	tc := newTestCluster(t, 3, 6)
	st := tc.stores[0]
	mustDo(t, tc, func(done func(error)) { st.Create("/hosts", nil, "", done) })
	var created, deleted int
	tc.stores[1].WatchChildren("/hosts", func(ev Event) {
		switch ev.Type {
		case EventCreated:
			created++
		case EventDeleted:
			deleted++
		}
	})
	mustDo(t, tc, func(done func(error)) { st.Create("/hosts/h1", nil, "", done) })
	mustDo(t, tc, func(done func(error)) { st.Delete("/hosts/h1", done) })
	if created != 1 || deleted != 1 {
		t.Fatalf("created=%d deleted=%d", created, deleted)
	}
}

func TestEphemeralExpiresWhenPingsStop(t *testing.T) {
	tc := newTestCluster(t, 3, 7)
	st := tc.stores[0]
	// Ping from the moment the session is requested: the mustDo helper
	// settles 2 virtual seconds per op, longer than the TTL.
	tk := tc.sched.Every(500*time.Millisecond, func() { st.Ping("sess1") })
	mustDo(t, tc, func(done func(error)) { st.CreateSession("sess1", 2*time.Second, done) })
	mustDo(t, tc, func(done func(error)) { st.Create("/live", []byte("x"), "sess1", done) })

	// Keep pinging for 5 seconds: node stays.
	tc.sched.RunFor(5 * time.Second)
	if !tc.stores[1].Exists("/live") {
		t.Fatal("ephemeral expired despite pings")
	}
	// Stop pinging: node goes within a few TTLs.
	tk.Stop()
	tc.sched.RunFor(8 * time.Second)
	for _, r := range tc.stores {
		if r.Exists("/live") {
			t.Fatalf("%s: ephemeral survived expiry", r.name)
		}
		if _, ok := r.sessions["sess1"]; ok {
			t.Fatalf("%s: session survived expiry", r.name)
		}
	}
}

func TestEphemeralSurvivesCoordLeaderFailover(t *testing.T) {
	tc := newTestCluster(t, 3, 8)
	st := tc.stores[0]
	// Ping from every replica (started before the session so the TTL is
	// covered from the instant it exists), so the session holder is
	// independent of which coord node leads.
	tk := tc.sched.Every(500*time.Millisecond, func() {
		for _, r := range tc.stores {
			if !r.stopped {
				r.Ping("sess1")
			}
		}
	})
	defer tk.Stop()
	mustDo(t, tc, func(done func(error)) { st.CreateSession("sess1", 2*time.Second, done) })
	mustDo(t, tc, func(done func(error)) { st.Create("/live", nil, "sess1", done) })

	leader := tc.leaderStore(t)
	leader.Stop()
	tc.sched.RunFor(6 * time.Second)
	for _, r := range tc.stores {
		if r == leader {
			continue
		}
		if !r.Exists("/live") {
			t.Fatalf("%s: ephemeral lost across coord failover", r.name)
		}
	}
}

func TestElectionSingleWinner(t *testing.T) {
	tc := newTestCluster(t, 3, 9)
	var winners []string
	var elections []*Election
	for i, st := range tc.stores {
		e := NewElection(st, "/master", fmt.Sprintf("master%d", i), 2*time.Second)
		name := fmt.Sprintf("master%d", i)
		e.OnElected = func() { winners = append(winners, name) }
		elections = append(elections, e)
		e.Run()
	}
	tc.sched.RunFor(5 * time.Second)
	if len(winners) != 1 {
		t.Fatalf("winners = %v, want exactly one", winners)
	}
	leading := 0
	for _, e := range elections {
		if e.Leading() {
			leading++
		}
	}
	if leading != 1 {
		t.Fatalf("leading count = %d", leading)
	}
	if got := elections[0].Leader(); got != winners[0] {
		t.Fatalf("Leader() = %q, want %q", got, winners[0])
	}
}

func TestElectionFailover(t *testing.T) {
	tc := newTestCluster(t, 3, 10)
	var elections []*Election
	for i, st := range tc.stores {
		e := NewElection(st, "/master", fmt.Sprintf("master%d", i), 2*time.Second)
		elections = append(elections, e)
		e.Run()
	}
	tc.sched.RunFor(5 * time.Second)
	var winner int = -1
	for i, e := range elections {
		if e.Leading() {
			winner = i
		}
	}
	if winner < 0 {
		t.Fatal("no initial winner")
	}
	// The winner stops campaigning (its process dies): pings stop, its
	// session expires, the znode vanishes, someone else takes over.
	deposed := false
	elections[winner].OnDeposed = func() { deposed = true }
	elections[winner].Stop()
	tc.sched.RunFor(15 * time.Second)
	_ = deposed // the stopped election won't see its own deposition
	newLeading := 0
	for i, e := range elections {
		if i == winner {
			continue
		}
		if e.Leading() {
			newLeading++
		}
	}
	if newLeading != 1 {
		t.Fatalf("after failover, %d standbys lead (want 1)", newLeading)
	}
}

func TestReplicaCatchesUpAfterRestart(t *testing.T) {
	tc := newTestCluster(t, 3, 11)
	st := tc.stores[0]
	victim := tc.stores[2]
	if victim.IsLeader() {
		victim = tc.stores[1]
	}
	proposer := st
	if proposer == victim {
		proposer = tc.stores[1]
	}
	victim.Stop()
	for i := 0; i < 5; i++ {
		path := fmt.Sprintf("/n%d", i)
		mustDo(t, tc, func(done func(error)) { proposer.Create(path, nil, "", done) })
	}
	victim.Resume()
	tc.sched.RunFor(5 * time.Second)
	for i := 0; i < 5; i++ {
		if !victim.Exists(fmt.Sprintf("/n%d", i)) {
			t.Fatalf("restarted replica missing /n%d", i)
		}
	}
}
