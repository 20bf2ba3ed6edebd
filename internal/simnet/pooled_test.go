package simnet

import (
	"testing"
	"time"

	"ustore/internal/simtime"
)

// pooledRec is a Pooled payload that counts what the network does with it.
type pooledRec struct {
	n *pooledCounts
}

type pooledCounts struct{ dups, released int }

func (r *pooledRec) Dup() any { r.n.dups++; return &pooledRec{r.n} }
func (r *pooledRec) Release() { r.n.released++ }

// TestDupGetsOwnPooledRecord: a duplicated delivery of a Pooled payload
// carries a record of its own, so each delivery has one owner.
func TestDupGetsOwnPooledRecord(t *testing.T) {
	s := simtime.NewScheduler(1)
	net := New(s)
	net.Colocate("a", "ma")
	net.Colocate("b", "mb")
	net.SetMachineDupRate("ma", "mb", 1)
	var got []*pooledRec
	net.Node("b").Handle(func(m Message) { got = append(got, m.Payload.(*pooledRec)) })
	counts := &pooledCounts{}
	rec := &pooledRec{counts}
	net.Node("a").Send(net.Addr("b"), rec, 32)
	s.RunFor(time.Second)
	if len(got) != 2 || counts.dups != 1 {
		t.Fatalf("%d deliveries after %d dups, want 2 after 1", len(got), counts.dups)
	}
	if got[0] == got[1] || (got[0] != rec && got[1] != rec) {
		t.Fatalf("the two deliveries share one record")
	}
	if counts.released != 0 {
		t.Fatalf("a delivered record was released %d times by the network", counts.released)
	}
}

// unregister takes name's node off its network, leaving the name interned
// with no node: the state of a name interned before its node registers.
func unregister(n *Network, name string) { n.table.node(name).net = nil }

// TestDroppedPooledRecordReleased: every path that drops a message gives
// its Pooled record back, once: an unknown destination, an isolated machine,
// a cut, the loss dice, a down node, a node with no handler, and on a
// Fabric's network a cut, either end isolated, a down node and a name with
// no node, unregistered through either argument's network.
func TestDroppedPooledRecordReleased(t *testing.T) {
	local := func(fault func(net *Network)) func(t *testing.T) (*pooledCounts, uint64) {
		return func(t *testing.T) (*pooledCounts, uint64) {
			s := simtime.NewScheduler(1)
			net := New(s)
			net.Colocate("a", "ma")
			net.Colocate("b", "mb")
			net.Node("b").Handle(func(Message) { t.Error("a dropped message was delivered") })
			fault(net)
			counts := &pooledCounts{}
			net.Node("a").Send(net.Addr("b"), &pooledRec{counts}, 32)
			s.RunFor(time.Second)
			return counts, net.Stats().Dropped
		}
	}
	fabric := func(fault func(f *Fabric)) func(t *testing.T) (*pooledCounts, uint64) {
		return func(t *testing.T) (*pooledCounts, uint64) {
			e, f := newTestFabric(t)
			na, nb := f.Network(0), f.Network(1)
			na.Colocate("a", "ma")
			nb.Colocate("b", "mb")
			na.Node("a")
			nb.Node("b").Handle(func(Message) { t.Error("a dropped message was delivered") })
			fault(f)
			counts := &pooledCounts{}
			na.Node("a").Send(na.Addr("b"), &pooledRec{counts}, 32)
			e.RunFor(time.Second)
			return counts, na.Stats().Dropped
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) (*pooledCounts, uint64)
	}{
		{"unknown", local(func(net *Network) { unregister(net, "b") })},
		{"isolated", local(func(net *Network) { net.IsolateMachine("mb") })},
		{"cut", local(func(net *Network) { net.CutMachines("ma", "mb") })},
		{"loss", local(func(net *Network) { net.SetMachineLossRate("ma", "mb", 1) })},
		{"down", local(func(net *Network) { net.Node("b").SetDown(true) })},
		{"no-handler", local(func(net *Network) { net.Node("b").Handle(nil) })},
		{"fabric-unknown", fabric(func(f *Fabric) { unregister(f.Network(0), "b") })},
		{"fabric-dst-unknown", fabric(func(f *Fabric) { unregister(f.Network(1), "b") })},
		{"fabric-cut", fabric(func(f *Fabric) { f.Network(0).CutMachines("ma", "mb") })},
		{"fabric-src-isolated", fabric(func(f *Fabric) { f.Network(0).IsolateMachine("ma") })},
		{"fabric-dst-isolated", fabric(func(f *Fabric) { f.Network(1).IsolateMachine("mb") })},
		{"fabric-down", fabric(func(f *Fabric) { f.Network(1).Node("b").SetDown(true) })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counts, dropped := tc.run(t)
			if dropped != 1 || counts.released != 1 || counts.dups != 0 {
				t.Fatalf("dropped %d, released %d times, duplicated %d times; want 1, 1, 0",
					dropped, counts.released, counts.dups)
			}
		})
	}
}

// TestDispatchReleasesPooledRequest: an RPC request that is Pooled goes back
// once its delivery is done with, and only then: after a sync handler
// answers, after an async handler returns, and after an unknown method is
// refused. Every request is duplicated, and every delivery runs the handler,
// so each case releases two records, each after its own handler run; the
// caller takes the first reply.
func TestDispatchReleasesPooledRequest(t *testing.T) {
	for _, tc := range []struct {
		name     string
		register func(srv *RPCNode, s *simtime.Scheduler, handle func(args any))
		calls    int // handler runs
	}{
		{"sync", func(srv *RPCNode, _ *simtime.Scheduler, handle func(any)) {
			srv.Register("m", func(_ string, args any) (any, error) { handle(args); return 1, nil })
		}, 2},
		{"async", func(srv *RPCNode, s *simtime.Scheduler, handle func(any)) {
			srv.RegisterAsync("m", func(_ string, args any, reply *AsyncReply) {
				handle(args)
				s.After(50*time.Millisecond, func() { reply.Reply(1, nil) })
			})
		}, 2},
		{"unknown", func(*RPCNode, *simtime.Scheduler, func(any)) {}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := simtime.NewScheduler(1)
			net := New(s)
			net.Colocate("cli", "ma")
			net.Colocate("srv", "mb")
			net.SetMachineDupRate("ma", "mb", 1)
			srv, cli := NewRPCNode(net, "srv"), NewRPCNode(net, "cli")
			counts := &pooledCounts{}
			calls := 0
			tc.register(srv, s, func(args any) {
				if _, ok := args.(*pooledRec); !ok || counts.released != calls {
					t.Errorf("handler run %d got %T after %d releases, want a live *pooledRec after %d",
						calls+1, args, counts.released, calls)
				}
				calls++
			})
			replies := 0
			cli.Call("srv", "m", &pooledRec{counts}, 32, time.Second, func(any, error) { replies++ })
			s.RunFor(2 * time.Second)
			if calls != tc.calls || replies != 1 || counts.dups != 1 || counts.released != 2 {
				t.Fatalf("%d handler runs, %d replies, %d dups, %d releases; want %d, 1, 1, 2",
					calls, replies, counts.dups, counts.released, tc.calls)
			}
		})
	}
}

// TestRetryRefusesPooledArgs: CallWithRetry resends its args, and the first
// delivery gives a Pooled record back, so it refuses one before sending.
func TestRetryRefusesPooledArgs(t *testing.T) {
	s := simtime.NewScheduler(1)
	net := New(s)
	cli := NewRPCNode(net, "cli")
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("CallWithRetry sent Pooled args")
		}
		if sent := net.Stats().Sent; sent != 0 {
			t.Fatalf("%d messages sent before the refusal", sent)
		}
	}()
	cli.CallWithRetry("srv", "m", &pooledRec{&pooledCounts{}}, 32, RetryOpts{}, func(any, error) {})
}
