package simnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ustore/internal/simtime"
)

func newNet(t *testing.T) (*simtime.Scheduler, *Network) {
	t.Helper()
	s := simtime.NewScheduler(1)
	return s, New(s)
}

// ownMachines places each node on a machine of its own ("mach-"+node):
// faults and brownouts attach to machines.
func ownMachines(n *Network, nodes ...string) {
	for _, node := range nodes {
		n.Colocate(node, "mach-"+node)
	}
}

func TestDeliveryWithLatency(t *testing.T) {
	s, n := newNet(t)
	var gotAt simtime.Time
	var got Message
	n.Node("b").Handle(func(m Message) { got = m; gotAt = s.Now() })
	n.Node("a").Send(n.Addr("b"), "hello", 0)
	s.Run()
	if got.Payload != "hello" || n.Name(got.From) != "a" {
		t.Fatalf("got %+v", got)
	}
	if gotAt != linkLatency {
		t.Fatalf("delivered at %v, want the %v link latency", gotAt, linkLatency)
	}
}

func TestSerializationDelay(t *testing.T) {
	s, n := newNet(t)
	// 125e6 B/s: 125e6 bytes take exactly 1s on top of the link latency.
	var gotAt simtime.Time
	n.Node("b").Handle(func(m Message) { gotAt = s.Now() })
	n.Node("a").Send(n.Addr("b"), nil, 125_000_000)
	s.Run()
	if gotAt != linkLatency+time.Second {
		t.Fatalf("delivered at %v, want %v", gotAt, linkLatency+time.Second)
	}
}

func TestLocalSendNoLatency(t *testing.T) {
	s, n := newNet(t)
	var gotAt simtime.Time = -1
	n.Node("a").Handle(func(m Message) { gotAt = s.Now() })
	n.Node("a").Send(n.Addr("a"), "self", 1000)
	s.Run()
	if gotAt != 0 {
		t.Fatalf("local delivery at %v, want 0", gotAt)
	}
}

func TestCutAndHeal(t *testing.T) {
	s, n := newNet(t)
	count := 0
	n.Node("b").Handle(func(m Message) { count++ })
	a := n.Node("a")
	ownMachines(n, "a", "b")
	n.CutMachines("mach-a", "mach-b")
	a.Send(n.Addr("b"), 1, 0)
	s.Run()
	if count != 0 {
		t.Fatal("message crossed a cut link")
	}
	n.HealMachines("mach-a", "mach-b")
	a.Send(n.Addr("b"), 2, 0)
	s.Run()
	if count != 1 {
		t.Fatal("message lost after heal")
	}
	st := n.Stats()
	if st.Sent != 2 || st.Delivered != 1 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDownNodeDropsInFlight(t *testing.T) {
	s, n := newNet(t)
	count := 0
	b := n.Node("b")
	b.Handle(func(m Message) { count++ })
	n.Node("a").Send(n.Addr("b"), 1, 0)
	s.After(linkLatency/2, func() { b.SetDown(true) })
	s.Run()
	if count != 0 {
		t.Fatal("down node received an in-flight message")
	}
	b.SetDown(false)
	n.Node("a").Send(n.Addr("b"), 2, 0)
	s.Run()
	if count != 1 {
		t.Fatal("restored node did not receive")
	}
}

func TestLossRate(t *testing.T) {
	s := simtime.NewScheduler(99)
	n := New(s)
	ownMachines(n, "a", "b")
	n.SetMachineLossRate("mach-a", "mach-b", 0.5)
	got := 0
	n.Node("b").Handle(func(m Message) { got++ })
	a := n.Node("a")
	const total = 2000
	for i := 0; i < total; i++ {
		a.Send(n.Addr("b"), i, 0)
	}
	s.Run()
	if got < total*2/5 || got > total*3/5 {
		t.Fatalf("delivered %d of %d with 50%% loss; outside [40%%,60%%]", got, total)
	}
}

func TestLossRateValidation(t *testing.T) {
	_, n := newNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for loss rate > 1")
		}
	}()
	n.SetMachineLossRate("mach-a", "mach-b", 1.5)
}

func TestUnknownDestinationDropped(t *testing.T) {
	s, n := newNet(t)
	n.Node("a").Send(n.Addr("ghost"), 1, 0)
	s.Run()
	if n.Stats().Dropped != 1 {
		t.Fatalf("stats = %+v, want 1 drop", n.Stats())
	}
}

func TestRPCBasic(t *testing.T) {
	s, n := newNet(t)
	srv := NewRPCNode(n, "server")
	srv.Register("add", func(from string, args any) (any, error) {
		p := args.([2]int)
		return p[0] + p[1], nil
	})
	cli := NewRPCNode(n, "client")
	var result any
	var callErr error
	cli.Call("server", "add", [2]int{2, 3}, 0, time.Second, func(r any, err error) {
		result, callErr = r, err
	})
	s.Run()
	if callErr != nil || result != 5 {
		t.Fatalf("result=%v err=%v", result, callErr)
	}
}

func TestRPCRemoteError(t *testing.T) {
	s, n := newNet(t)
	srv := NewRPCNode(n, "server")
	srv.Register("boom", func(from string, args any) (any, error) {
		return nil, fmt.Errorf("kaboom %d", 42)
	})
	cli := NewRPCNode(n, "client")
	var callErr error
	cli.Call("server", "boom", nil, 0, time.Second, func(r any, err error) { callErr = err })
	s.Run()
	if callErr == nil || callErr.Error() != "kaboom 42" {
		t.Fatalf("err = %v", callErr)
	}
}

func TestRPCUnknownMethod(t *testing.T) {
	s, n := newNet(t)
	NewRPCNode(n, "server")
	cli := NewRPCNode(n, "client")
	var callErr error
	cli.Call("server", "nope", nil, 0, time.Second, func(r any, err error) { callErr = err })
	s.Run()
	if callErr == nil {
		t.Fatal("expected unknown-method error")
	}
}

func TestRPCTimeoutOnCutLink(t *testing.T) {
	s, n := newNet(t)
	srv := NewRPCNode(n, "server")
	srv.Register("ping", func(from string, args any) (any, error) { return "pong", nil })
	cli := NewRPCNode(n, "client")
	ownMachines(n, "client", "server")
	n.CutMachines("mach-client", "mach-server")
	var callErr error
	fired := 0
	cli.Call("server", "ping", nil, 0, 100*time.Millisecond, func(r any, err error) {
		fired++
		callErr = err
	})
	s.Run()
	if fired != 1 {
		t.Fatalf("callback fired %d times, want exactly once", fired)
	}
	if !errors.Is(callErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", callErr)
	}
}

func TestRPCLateReplyAfterTimeoutIsDropped(t *testing.T) {
	s, n := newNet(t)
	srv := NewRPCNode(n, "server")
	srv.Register("slow", func(from string, args any) (any, error) { return "late", nil })
	cli := NewRPCNode(n, "client")
	ownMachines(n, "client", "server")
	n.SetMachineBrownout("mach-server", 200*time.Millisecond) // RTT > 400ms > 100ms timeout
	fired := 0
	var firstErr error
	cli.Call("server", "slow", nil, 0, 100*time.Millisecond, func(r any, err error) {
		fired++
		firstErr = err
	})
	s.Run()
	if fired != 1 || !errors.Is(firstErr, ErrTimeout) {
		t.Fatalf("fired=%d err=%v, want single timeout", fired, firstErr)
	}
}

func TestRPCConcurrentCallsKeepIdentity(t *testing.T) {
	s, n := newNet(t)
	srv := NewRPCNode(n, "server")
	srv.Register("echo", func(from string, args any) (any, error) { return args, nil })
	cli := NewRPCNode(n, "client")
	results := make(map[int]any)
	for i := 0; i < 50; i++ {
		i := i
		cli.Call("server", "echo", i, 0, time.Second, func(r any, err error) {
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			results[i] = r
		})
	}
	s.Run()
	for i := 0; i < 50; i++ {
		if results[i] != i {
			t.Fatalf("call %d got %v", i, results[i])
		}
	}
}

// TestRPCNodeIgnoresRawPayload: a payload that is not an RPC envelope is
// delivered and dropped without disturbing the node's calls.
func TestRPCNodeIgnoresRawPayload(t *testing.T) {
	s, n := newNet(t)
	srv := NewRPCNode(n, "server")
	srv.Register("echo", func(from string, args any) (any, error) { return args, nil })
	cli := NewRPCNode(n, "client")
	n.Node("client").Send(n.Addr("server"), "oneway", 0)
	var got any
	cli.Call("server", "echo", 7, 0, time.Second, func(r any, err error) { got = r })
	s.Run()
	if got != 7 {
		t.Fatalf("echo after a raw payload = %v, want 7", got)
	}
}
