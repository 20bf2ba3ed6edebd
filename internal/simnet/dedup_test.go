package simnet

import (
	"testing"
	"time"

	"ustore/internal/obs"
	"ustore/internal/simtime"
)

// dedupRig is an RPC server and a raw caller that numbers its own requests,
// so a test can duplicate any request ID at any time and see every reply.
// The server's "bump" method is sync and "slow" async (it replies 1 s
// later); both answer with how many times any handler has run, so a reply
// names the execution it comes from.
type dedupRig struct {
	t       *testing.T
	s       *simtime.Scheduler
	n       *Network
	srv     *RPCNode
	cli     *Node
	runs    int
	replies []dedupReply
	hits    *obs.Counter
}

type dedupReply struct {
	id  uint64
	run any
}

func newDedupRig(t *testing.T) *dedupRig {
	g := &dedupRig{t: t, s: simtime.NewScheduler(1)}
	g.n = New(g.s)
	rec := obs.NewRecorder()
	g.n.SetRecorder(rec)
	g.hits = rec.Registry().Counter("simnet", "rpc_dedup_hits_total")
	g.srv = NewRPCNode(g.n, "srv")
	g.cli = g.n.Node("cli")
	ownMachines(g.n, "srv", "cli")
	g.cli.Handle(func(m Message) {
		if m.rpc.kind != kindReply {
			t.Fatalf("caller got a %d message, want a reply", m.rpc.kind)
		}
		g.replies = append(g.replies, dedupReply{m.rpc.id, m.Payload})
	})
	g.srv.Register("bump", func(string, any) (any, error) {
		g.runs++
		return g.runs, nil
	})
	g.srv.RegisterAsync("slow", func(_ string, _ any, reply *AsyncReply) {
		g.runs++
		run := g.runs
		g.s.After(time.Second, func() { reply.Reply(run, nil) })
	})
	return g
}

// request sends request id of method from the caller.
func (g *dedupRig) request(method string, id uint64) {
	g.n.send(g.cli, Message{From: g.cli.addr, To: g.srv.node.addr, rpc: rpcHeader{kind: kindRequest, id: id, text: method}})
}

// call sends request id, runs the network quiet and returns the replies it
// brought.
func (g *dedupRig) call(method string, id uint64) []dedupReply {
	n := len(g.replies)
	g.request(method, id)
	g.s.Run()
	return g.replies[n:]
}

// answeredBy requires exactly one reply to id, from handler run run.
func (g *dedupRig) answeredBy(what string, got []dedupReply, id uint64, run int) {
	g.t.Helper()
	if len(got) != 1 || got[0].id != id || got[0].run != run {
		g.t.Fatalf("%s: replies %v, want one to request %d from run %d", what, got, id, run)
	}
}

// wantHits requires the dedup counter to read n.
func (g *dedupRig) wantHits(n uint64) {
	g.t.Helper()
	if got := g.hits.Value(); got != n {
		g.t.Fatalf("rpc_dedup_hits_total = %d, want %d", got, n)
	}
}

// TestDedupSyncDuplicateAnsweredFromCache: a duplicate of a served sync
// request inside the window is answered with the cached reply, and the
// handler does not run again.
func TestDedupSyncDuplicateAnsweredFromCache(t *testing.T) {
	g := newDedupRig(t)
	g.answeredBy("first send", g.call("bump", 1), 1, 1)
	g.answeredBy("second request", g.call("bump", 2), 2, 2)
	g.wantHits(0)
	g.answeredBy("duplicate of 1", g.call("bump", 1), 1, 1)
	g.answeredBy("duplicate of 2", g.call("bump", 2), 2, 2)
	g.answeredBy("duplicate of 1 again", g.call("bump", 1), 1, 1)
	if g.runs != 2 {
		t.Fatalf("handler ran %d times for 2 requests, want 2", g.runs)
	}
	g.wantHits(3)
}

// TestDedupAsyncDuplicateAbsorbed: a duplicate that arrives while the async
// handler still works is absorbed, and the one reply comes when the handler
// answers. Once answered, the ID leaves the in-flight set: after the prune
// drops its cached reply, a duplicate runs the handler again.
func TestDedupAsyncDuplicateAbsorbed(t *testing.T) {
	g := newDedupRig(t)
	g.request("slow", 1)
	g.s.RunFor(100 * time.Millisecond)
	g.request("slow", 1) // the handler is still working
	g.s.RunFor(100 * time.Millisecond)
	if len(g.replies) != 0 {
		t.Fatalf("replies %v before the handler answered", g.replies)
	}
	g.wantHits(1)
	g.s.Run()
	g.answeredBy("duplicated async request", g.replies, 1, 1)
	g.answeredBy("duplicate after the answer", g.call("slow", 1), 1, 1)
	g.wantHits(2)

	// 1023 more served requests: the 1024th remember prunes request 1.
	for id := uint64(2); id <= 1024; id++ {
		g.call("bump", id)
	}
	g.answeredBy("duplicate after the prune", g.call("slow", 1), 1, 1025)
	g.wantHits(2)
}

// TestDedupWindowPrunedOnlyEvery1024th pins the retention rule: a served
// reply is dropped only by the prune that runs on every 1024th remember, and
// then only when it is more than dedupWindow IDs behind its caller's newest.
func TestDedupWindowPrunedOnlyEvery1024th(t *testing.T) {
	g := newDedupRig(t)
	for id := uint64(1); id <= 1023; id++ {
		g.answeredBy("request", g.call("bump", id), id, int(id))
	}
	// Request 1 is 1022 IDs behind the newest, far outside the window, but
	// no prune has run yet.
	g.answeredBy("duplicate of 1 before the prune", g.call("bump", 1), 1, 1)
	g.wantHits(1)

	// The 1024th remember prunes everything below 1024-dedupWindow.
	g.answeredBy("request 1024", g.call("bump", 1024), 1024, 1024)
	edge := uint64(1024 - dedupWindow)
	g.answeredBy("duplicate at the window's edge", g.call("bump", edge), edge, int(edge))
	g.wantHits(2)
	g.answeredBy("duplicate just outside the window", g.call("bump", edge-1), edge-1, 1025)
	g.answeredBy("duplicate of 1 after the prune", g.call("bump", 1), 1, 1026)
	g.wantHits(2)
	// A re-executed request is cached again.
	g.answeredBy("duplicate of a re-executed request", g.call("bump", 1), 1, 1026)
	g.wantHits(3)
}

// TestDedupCallersKeptApart: two callers' equal request IDs are different
// requests, and each caller's window runs on its own newest ID.
func TestDedupCallersKeptApart(t *testing.T) {
	g := newDedupRig(t)
	other := g.n.Node("other")
	g.n.Colocate("other", "mach-other")
	var otherReplies []dedupReply
	other.Handle(func(m Message) { otherReplies = append(otherReplies, dedupReply{m.rpc.id, m.Payload}) })
	g.answeredBy("cli 1", g.call("bump", 1), 1, 1)
	g.n.send(other, Message{From: other.addr, To: g.srv.node.addr, rpc: rpcHeader{kind: kindRequest, id: 1, text: "bump"}})
	g.s.Run()
	g.answeredBy("other's request 1", otherReplies, 1, 2)
	g.wantHits(0)
	// cli's newest runs far ahead; other's request 1 stays inside its own
	// window through the prune.
	for id := uint64(2); id <= 1023; id++ {
		g.call("bump", id)
	}
	otherReplies = nil
	g.n.send(other, Message{From: other.addr, To: g.srv.node.addr, rpc: rpcHeader{kind: kindRequest, id: 1, text: "bump"}})
	g.s.Run()
	g.answeredBy("other's duplicate after cli's prune", otherReplies, 1, 2)
	g.answeredBy("cli's duplicate of 1 after the prune", g.call("bump", 1), 1, 1025)
	g.wantHits(1)
}
