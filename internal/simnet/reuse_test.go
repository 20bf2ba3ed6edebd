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
// fill today (48, 80 and 128 bytes), as simtime.TestEventSize does for
// Event: a field that crosses a class boundary grows every record by a
// whole class. A message in flight carries a Message, whose interned
// addresses keep it at 64 bytes.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Message", unsafe.Sizeof(Message{}), 64},
		{"pendingCall", unsafe.Sizeof(pendingCall{}), 48},
		{"delivery", unsafe.Sizeof(delivery{}), 80},
		{"retrier", unsafe.Sizeof(retrier{}), 128},
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
// record. Cancel takes the event out of the queue, so it may be recycled at
// once; had it stayed queued at call 1's deadline when call 2 re-armed it,
// call 2 would time out early.
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

// TestFabricPoolsAcrossWorkers runs chains of RPCs among four nodes of a
// Fabric's network, so records in flight are taken from and returned to its
// pools by every node. Every call gets its own reply.
func TestFabricPoolsAcrossWorkers(t *testing.T) {
	const parts, chains, rounds = 4, 8, 25
	e, f := newTestFabric(t)
	nodes := make([]*RPCNode, parts)
	for p := range nodes {
		nodes[p] = NewRPCNode(f.Network(p), fmt.Sprintf("n%d", p))
		nodes[p].Register("echo", func(_ string, args any) (any, error) { return args, nil })
	}
	replies := make([]int, parts)
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
	for p, got := range replies {
		if got != chains*rounds {
			t.Errorf("n%d got %d replies, want %d", p, got, chains*rounds)
		}
	}
}

// TestReplyDuringBackoffCompletesOnce: call 1's first attempt times out, and
// its late reply lands while the resend waits out its backoff. The call
// completes once, with that reply, and the armed resend never reaches the
// wire. Call 2, issued from call 1's callback, takes the recycled call
// record but not the retrier the stale backoff still holds, and is still
// waiting when that backoff ends; it gets its own reply. One request and one
// reply per call cross the network.
func TestReplyDuringBackoffCompletesOnce(t *testing.T) {
	s, cli := slowEcho()
	opts := RetryOpts{Attempts: 3, Timeout: 100 * time.Millisecond, Backoff: 10 * time.Second}
	var first, second []outcome
	cli.CallWithRetry("srv", "slow", 150, 0, opts, func(res any, err error) {
		first = append(first, outcome{res, err})
		cli.CallWithRetry("srv", "slow", 20_000, 0, RetryOpts{Timeout: 30 * time.Second}, func(res any, err error) {
			second = append(second, outcome{res, err})
		})
	})
	stale := cli.pending[cli.nextID].retry
	sent := func() uint64 { return cli.net.Stats().Sent }
	s.RunFor(200 * time.Millisecond) // past call 1's reply
	if len(first) != 1 || sent() != 3 {
		t.Fatalf("call 1 got %v and %d messages were sent; the test needs its reply to beat the resend", first, sent())
	}
	if cli.pending[cli.nextID].retry == stale {
		t.Error("call 2 took the retrier whose resend is still armed")
	}
	s.RunFor(15 * time.Second) // past the stale backoff, before call 2's reply
	if n := sent(); n != 3 {
		t.Errorf("%d messages sent by %v, want 3: call 1's request and reply and call 2's request", n, s.Now())
	}
	s.Run()
	if len(first) != 1 || first[0] != (outcome{150, nil}) {
		t.Fatalf("call 1 got %v, want one reply 150", first)
	}
	if len(second) != 1 || second[0] != (outcome{20_000, nil}) {
		t.Fatalf("call 2 got %v, want one reply 20000", second)
	}
	if n := sent(); n != 4 {
		t.Fatalf("%d messages sent, want 4: a request and a reply per call, no resend", n)
	}
	if made, idle := cli.retriers.Counts(); made != 2 || idle != 2 || len(cli.pending) != 0 {
		t.Fatalf("%d of %d retriers free and %d calls pending after both calls, want 2 of 2 and 0",
			idle, made, len(cli.pending))
	}
}

// lossHealer clears the loss rate between two machines when it fires.
type lossHealer struct {
	n    *Network
	a, b string
}

func (l *lossHealer) Fire() { l.n.SetMachineLossRate(l.a, l.b, 0) }

// TestRetriedCallAllocs pins what a warm CallWithRetry whose first attempt
// is lost allocates: nothing beyond its boxed args, which the caller boxes.
// The call record, the retrier, the timeout and the backoff event are all
// recycled.
func TestRetriedCallAllocs(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	srv := NewRPCNode(n, "srv")
	cli := NewRPCNode(n, "cli")
	ownMachines(n, "srv", "cli")
	calls := 0
	srv.Register("echo", func(_ string, args any) (any, error) { calls++; return args, nil })
	args := any("ping")
	replies := 0
	done := func(_ any, err error) {
		if err != nil {
			t.Fatal(err)
		}
		replies++
	}
	opts := RetryOpts{Attempts: 2, Timeout: 100 * time.Millisecond, Backoff: 10 * time.Millisecond}
	heal := &lossHealer{n: n, a: "mach-cli", b: "mach-srv"}
	trip := func() {
		n.SetMachineLossRate("mach-cli", "mach-srv", 1)
		// Heals at the first attempt's deadline, before its timeout fires
		// (same instant, scheduled first), so the resend gets through.
		s.FireAfterR(opts.Timeout, heal)
		cli.CallWithRetry("srv", "echo", args, 0, opts, done)
		s.Run()
		// Start the next trip at the same phase of the scheduler's 4.096 s
		// timer wheel, so it reuses the wheel slots this one grew.
		const phase = 4096 * time.Millisecond
		s.RunUntil((s.Now()/phase + 1) * phase)
	}
	for i := 0; i < 64; i++ {
		trip()
	}
	if got := testing.AllocsPerRun(200, trip); got > 0 {
		t.Fatalf("retried call allocates %.0f objects, want 0", got)
	}
	if replies != 64+201 || calls != replies {
		t.Fatalf("%d replies and %d handler runs, want %d each", replies, calls, 64+201)
	}
	if retries := n.Stats().Sent - 2*uint64(replies); retries != uint64(replies) {
		t.Fatalf("%d resends for %d calls, want one each", retries, replies)
	}
}
