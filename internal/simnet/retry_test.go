package simnet

import (
	"errors"
	"testing"
	"time"

	"ustore/internal/obs"
	"ustore/internal/simtime"
)

func TestCallWithRetrySurvivesLostRequest(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	srv := NewRPCNode(n, "srv")
	cli := NewRPCNode(n, "cli")
	calls := 0
	srv.Register("echo", func(from string, args any) (any, error) {
		calls++
		return args, nil
	})

	// Drop the first request deterministically via a one-shot cut.
	ownMachines(n, "cli", "srv")
	n.CutMachines("mach-cli", "mach-srv")
	s.After(50*time.Millisecond, func() { n.HealMachines("mach-cli", "mach-srv") })

	var got any
	var gerr error = errors.New("pending")
	cli.CallWithRetry("srv", "echo", 42, 0,
		RetryOpts{Attempts: 3, Timeout: 100 * time.Millisecond, Backoff: 20 * time.Millisecond},
		func(result any, err error) { got, gerr = result, err })
	s.Run()
	if gerr != nil {
		t.Fatalf("call failed despite retries: %v", gerr)
	}
	if got != 42 {
		t.Fatalf("result = %v, want 42", got)
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1", calls)
	}
}

func TestCallWithRetryExhaustsAttempts(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	NewRPCNode(n, "srv") // no handler matters; link stays cut
	cli := NewRPCNode(n, "cli")
	ownMachines(n, "cli", "srv")
	n.CutMachines("mach-cli", "mach-srv")

	var gerr error
	fired := 0
	cli.CallWithRetry("srv", "nope", nil, 0,
		RetryOpts{Attempts: 3, Timeout: 50 * time.Millisecond, Backoff: 10 * time.Millisecond},
		func(_ any, err error) { fired++; gerr = err })
	s.Run()
	if fired != 1 {
		t.Fatalf("done fired %d times, want exactly 1", fired)
	}
	if !errors.Is(gerr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gerr)
	}
}

// TestRetryResendReExecutes: the reply, not the request, is lost. The
// server keeps no reply cache, so the resend runs the handler again, and the
// call completes once, with the reply to the resend.
func TestRetryResendReExecutes(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	srv := NewRPCNode(n, "srv")
	cli := NewRPCNode(n, "cli")
	calls := 0
	srv.Register("bump", func(from string, args any) (any, error) {
		calls++
		return calls, nil
	})

	// cli hears nothing for 50ms, so the first reply dies in flight while
	// its request still gets out.
	ownMachines(n, "cli", "srv")
	n.Node("cli").SetDown(true)
	s.After(50*time.Millisecond, func() { n.Node("cli").SetDown(false) })

	var got []any
	var gerr error = errors.New("pending")
	cli.CallWithRetry("srv", "bump", nil, 0,
		RetryOpts{Attempts: 4, Timeout: 100 * time.Millisecond, Backoff: 20 * time.Millisecond},
		func(result any, err error) { got, gerr = append(got, result), err })
	s.Run()
	if gerr != nil {
		t.Fatal(gerr)
	}
	if calls != 2 {
		t.Fatalf("handler ran %d times for a request and its resend, want 2", calls)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("call completed with %v, want once with 2 (the resend's execution)", got)
	}
}

func TestRetryMaxElapsedBudget(t *testing.T) {
	// With a total-retry budget shorter than the per-attempt schedule, the
	// call gives up at the first timeout past the budget even though
	// Attempts would allow many more sends.
	s := simtime.NewScheduler(1)
	n := New(s)
	NewRPCNode(n, "srv")
	cli := NewRPCNode(n, "cli")
	ownMachines(n, "cli", "srv")
	n.CutMachines("mach-cli", "mach-srv")

	var gerr error
	fired := 0
	cli.CallWithRetry("srv", "nope", nil, 0,
		RetryOpts{Attempts: 100, Timeout: 50 * time.Millisecond,
			Backoff: 10 * time.Millisecond, MaxElapsed: 120 * time.Millisecond},
		func(_ any, err error) { fired++; gerr = err })
	s.Run()
	if fired != 1 {
		t.Fatalf("done fired %d times, want exactly 1", fired)
	}
	if !errors.Is(gerr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gerr)
	}
	// 100 attempts at ~60ms each would run ~6 simulated seconds; the budget
	// must have cut that to under a second.
	if s.Now() > time.Second {
		t.Fatalf("retries ran until %v despite a 120ms budget", s.Now())
	}
}

func TestRetryCountersVisible(t *testing.T) {
	// Storm observability: retry attempts and exhaustion are counted per
	// method in the registry.
	s := simtime.NewScheduler(1)
	n := New(s)
	rec := obs.NewRecorder()
	n.SetRecorder(rec)
	NewRPCNode(n, "srv")
	cli := NewRPCNode(n, "cli")
	ownMachines(n, "cli", "srv")
	n.CutMachines("mach-cli", "mach-srv")

	cli.CallWithRetry("srv", "nope", nil, 0,
		RetryOpts{Attempts: 3, Timeout: 50 * time.Millisecond, Backoff: 10 * time.Millisecond},
		func(any, error) {})
	s.Run()

	reg := rec.Registry()
	if got := reg.Counter("simnet", "rpc_retry_attempts_total", obs.L("method", "nope")).Value(); got != 2 {
		t.Fatalf("retry_attempts = %d, want 2 (attempts 2 and 3)", got)
	}
	if got := reg.Counter("simnet", "rpc_retry_exhausted_total", obs.L("method", "nope")).Value(); got != 1 {
		t.Fatalf("retry_exhausted = %d, want 1", got)
	}
}

// TestDupDeliveredRequestRunsPerDelivery: a duplicated request runs its
// handler once per delivery, and each call still completes once.
func TestDupDeliveredRequestRunsPerDelivery(t *testing.T) {
	s := simtime.NewScheduler(7)
	n := New(s)
	srv := NewRPCNode(n, "srv")
	cli := NewRPCNode(n, "cli")
	calls := 0
	srv.Register("bump", func(from string, args any) (any, error) {
		calls++
		return nil, nil
	})
	ownMachines(n, "cli", "srv")
	n.SetMachineDupRate("mach-cli", "mach-srv", 1.0) // every request delivered twice

	oks := 0
	for i := 0; i < 10; i++ {
		cli.Call("srv", "bump", nil, 0, time.Second, func(_ any, err error) {
			if err == nil {
				oks++
			}
		})
		s.RunFor(2 * time.Second)
	}
	if calls != 20 {
		t.Fatalf("handler ran %d times for 10 twice-delivered calls, want 20", calls)
	}
	if oks != 10 {
		t.Fatalf("%d calls succeeded, want 10", oks)
	}
}

func TestMachineCutAndHeal(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	got := 0
	a := n.Node("a")
	b := n.Node("b")
	b.Handle(func(Message) { got++ })
	_ = a
	n.Colocate("a", "rack1")
	n.Colocate("b", "rack2")

	n.CutMachines("rack1", "rack2")
	a.Send(n.Addr("b"), "x", 0)
	s.Run()
	if got != 0 {
		t.Fatal("message crossed a cut machine pair")
	}
	n.HealMachines("rack2", "rack1") // order must not matter
	a.Send(n.Addr("b"), "x", 0)
	s.Run()
	if got != 1 {
		t.Fatal("message did not cross after heal")
	}
}

func TestIsolateMachineKeepsLoopback(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	a := n.Node("a")
	peer := n.Node("peer")
	var aGot, peerGot int
	n.Node("a2").Handle(func(Message) { aGot++ })
	peer.Handle(func(Message) { peerGot++ })
	n.Colocate("a", "m1")
	n.Colocate("a2", "m1")
	n.Colocate("peer", "m2")
	n.Colocate("other", "m3")

	n.IsolateMachine("m1")
	a.Send(n.Addr("a2"), "x", 0)   // loopback survives
	a.Send(n.Addr("peer"), "x", 0) // uplink is unplugged
	peer.Send(n.Addr("a"), "x", 0)
	s.Run()
	if aGot != 1 {
		t.Fatalf("loopback deliveries = %d, want 1", aGot)
	}
	if peerGot != 0 {
		t.Fatal("isolated machine reached a peer")
	}
	n.Node("other").Send(n.Addr("peer"), "x", 0) // a pair that does not touch m1
	s.Run()
	if peerGot != 1 {
		t.Fatal("isolating m1 cut an unrelated machine pair")
	}
	peerGot = 0

	n.RejoinMachine("m1")
	a.Send(n.Addr("peer"), "x", 0)
	s.Run()
	if peerGot != 1 {
		t.Fatal("rejoin did not restore traffic")
	}
}

func TestMachineLossRate(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	a := n.Node("a")
	got := 0
	n.Node("b").Handle(func(Message) { got++ })
	n.Colocate("a", "m1")
	n.Colocate("b", "m2")
	n.SetMachineLossRate("m1", "m2", 1.0)
	for i := 0; i < 20; i++ {
		a.Send(n.Addr("b"), i, 0)
	}
	s.Run()
	if got != 0 {
		t.Fatalf("%d messages survived 100%% machine loss", got)
	}
	n.SetMachineLossRate("m1", "m2", 0)
	a.Send(n.Addr("b"), 1, 0)
	s.Run()
	if got != 1 {
		t.Fatal("message lost after loss rate reset")
	}
}
