package simnet

import (
	"errors"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"ustore/internal/simtime"
)

// TestRecordSizes pins the pooled records' sizes to the Go size classes they
// fill today (48, 96 and 112 bytes), as simtime.TestEventSize does for
// Event: a field that crosses a class boundary grows every record by a
// whole class.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"pendingCall", unsafe.Sizeof(pendingCall{}), 48},
		{"remoteMsg", unsafe.Sizeof(remoteMsg{}), 96},
		{"delivery", unsafe.Sizeof(delivery{}), 112},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, want <= %d", c.name, c.got, c.want)
		}
	}
}

// slowEcho is a client and a server whose "slow" method replies with its
// args after args milliseconds.
func slowEcho() (*simtime.Scheduler, *RPCNode) {
	s := simtime.NewScheduler(1)
	n := New(s)
	srv := NewRPCNode(n, "srv")
	cli := NewRPCNode(n, "cli")
	ownMachines(n, "srv", "cli")
	srv.RegisterAsync("slow", func(_ string, args any, reply *AsyncReply) {
		s.After(time.Duration(args.(int))*time.Millisecond, func() { reply.Reply(args, nil) })
	})
	return s, cli
}

type outcome struct {
	res any
	err error
}

// TestLateReplyReachesNeitherCall: call 1 times out and its record is
// recycled into call 2. Call 1's reply, landing while call 2 waits, must
// reach neither call: call 2 completes once, with its own reply.
func TestLateReplyReachesNeitherCall(t *testing.T) {
	s, cli := slowEcho()
	var first, second []outcome
	cli.Call("srv", "slow", 300, 0, 100*time.Millisecond, func(res any, err error) {
		first = append(first, outcome{res, err})
	})
	rec := cli.pending[cli.nextID]
	s.RunFor(200 * time.Millisecond)
	cli.Call("srv", "slow", 500, 0, time.Second, func(res any, err error) {
		second = append(second, outcome{res, err})
	})
	if cli.pending[cli.nextID] != rec {
		t.Fatal("call 2 did not reuse call 1's record; the test needs it to")
	}
	s.Run()
	if len(first) != 1 || !errors.Is(first[0].err, ErrTimeout) {
		t.Fatalf("call 1 got %v, want one ErrTimeout", first)
	}
	if len(second) != 1 || second[0] != (outcome{500, nil}) {
		t.Fatalf("call 2 got %v, want one reply 500", second)
	}
}

// TestReleasedTimeoutNeverFires: call 1's reply cancels and releases its
// timeout while the event is still queued, and call 2 reuses call 1's
// record. The released event is recycled only once the queue drops it; had
// it been recycled at once, call 2 would re-arm the same event while it
// still sits at call 1's deadline, which then times call 2 out early.
func TestReleasedTimeoutNeverFires(t *testing.T) {
	s, cli := slowEcho()
	var first, second []outcome
	cli.Call("srv", "slow", 1, 0, time.Second, func(res any, err error) {
		first = append(first, outcome{res, err})
	})
	rec := cli.pending[cli.nextID]
	s.RunFor(10 * time.Millisecond)
	cli.Call("srv", "slow", 1500, 0, 2*time.Second, func(res any, err error) {
		second = append(second, outcome{res, err})
	})
	if cli.pending[cli.nextID] != rec {
		t.Fatal("call 2 did not reuse call 1's record; the test needs it to")
	}
	s.Run()
	if len(first) != 1 || first[0] != (outcome{1, nil}) {
		t.Fatalf("call 1 got %v, want one reply 1", first)
	}
	if len(second) != 1 || second[0] != (outcome{1500, nil}) {
		t.Fatalf("call 2 got %v, want one reply 1500", second)
	}
}

// TestFabricPoolsAcrossWorkers runs chains of RPCs between four partitions
// on four workers, so cross-partition records are taken from and returned
// to each network's pool by several goroutines at once; run it under -race.
// Every call gets its own reply.
func TestFabricPoolsAcrossWorkers(t *testing.T) {
	const parts, chains, rounds = 4, 8, 25
	e, f := newTestFabric(t, parts, parts)
	nodes := make([]*RPCNode, parts)
	for p := range nodes {
		nodes[p] = NewRPCNode(f.Network(p), fmt.Sprintf("n%d", p))
		nodes[p].Register("echo", func(_ string, args any) (any, error) { return args, nil })
	}
	replies := make([]int, parts) // replies[p] is written on p's partition only
	for p, n := range nodes {
		p, n := p, n
		var call func(i int)
		call = func(i int) {
			if i == rounds {
				return
			}
			to := fmt.Sprintf("n%d", (p+1+i%(parts-1))%parts)
			n.Call(to, "echo", i, 0, time.Second, func(res any, err error) {
				if err != nil || res != i {
					t.Errorf("n%d call %d to %s: got %v, %v", p, i, to, res, err)
				}
				replies[p]++
				call(i + 1)
			})
		}
		for c := 0; c < chains; c++ {
			call(0)
		}
	}
	e.RunFor(10 * time.Second)
	if e.Stats().FannedOut == 0 {
		t.Fatal("no window ran on worker goroutines")
	}
	for p, got := range replies {
		if got != chains*rounds {
			t.Errorf("n%d got %d replies, want %d", p, got, chains*rounds)
		}
	}
}
