package simnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ustore/internal/obs"
	"ustore/internal/simtime"
)

func TestAsyncRPCRepliesLater(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	srv := NewRPCNode(n, "server")
	srv.RegisterAsync("slow", func(from string, args any, reply *AsyncReply) {
		s.After(2*time.Second, func() { reply.Reply("done after work", nil) })
	})
	cli := NewRPCNode(n, "client")
	var got any
	var gotAt simtime.Time
	cli.Call("server", "slow", nil, 0, 10*time.Second, func(res any, err error) {
		got, gotAt = res, s.Now()
		if err != nil {
			t.Errorf("err: %v", err)
		}
	})
	s.Run()
	if got != "done after work" {
		t.Fatalf("got %v", got)
	}
	if gotAt < 2*time.Second {
		t.Fatalf("reply at %v, before the handler's work finished", gotAt)
	}
}

func TestAsyncRPCErrorPropagates(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	srv := NewRPCNode(n, "server")
	srv.RegisterAsync("fail", func(from string, args any, reply *AsyncReply) {
		s.After(time.Second, func() { reply.Reply(nil, errors.New("deferred boom")) })
	})
	cli := NewRPCNode(n, "client")
	var gotErr error
	cli.Call("server", "fail", nil, 0, 10*time.Second, func(_ any, err error) { gotErr = err })
	s.Run()
	if gotErr == nil || gotErr.Error() != "deferred boom" {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestAsyncRPCTimeoutBeforeReply(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	srv := NewRPCNode(n, "server")
	srv.RegisterAsync("glacial", func(from string, args any, reply *AsyncReply) {
		s.After(30*time.Second, func() { reply.Reply("too late", nil) })
	})
	cli := NewRPCNode(n, "client")
	fired := 0
	var gotErr error
	cli.Call("server", "glacial", nil, 0, time.Second, func(_ any, err error) {
		fired++
		gotErr = err
	})
	s.Run()
	if fired != 1 {
		t.Fatalf("callback fired %d times (late reply must be dropped)", fired)
	}
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestAsyncRPCDoubleReplyPanics(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	srv := NewRPCNode(n, "server")
	srv.RegisterAsync("dup", func(from string, args any, reply *AsyncReply) {
		reply.Reply("first", nil)
		defer func() {
			if recover() == nil {
				t.Error("second reply did not panic")
			}
		}()
		reply.Reply("second", nil)
	})
	cli := NewRPCNode(n, "client")
	cli.Call("server", "dup", nil, 0, time.Second, func(any, error) {})
	s.Run()
}

func TestAsyncTakesPrecedenceOverSync(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	srv := NewRPCNode(n, "server")
	srv.Register("m", func(from string, args any) (any, error) { return "sync", nil })
	srv.RegisterAsync("m", func(from string, args any, reply *AsyncReply) { reply.Reply("async", nil) })
	cli := NewRPCNode(n, "client")
	var got any
	cli.Call("server", "m", nil, 0, time.Second, func(res any, err error) { got = res })
	s.Run()
	if got != "async" {
		t.Fatalf("got %v, want the async handler to win", got)
	}
}

// TestRemoteErrorIsHandlersValue: a caller gets the very error value its
// handler returned, whether a sync handler returned it, an async one
// replied with it later, and a duplicate delivery runs the handler again.
// An async handler's error that wraps ErrTimeout stays a remote error: the
// call's own timeout counter does not move.
func TestRemoteErrorIsHandlersValue(t *testing.T) {
	s := simtime.NewScheduler(1)
	n := New(s)
	rec := obs.NewRecorder()
	n.SetRecorder(rec)
	srv := NewRPCNode(n, "srv")
	cli := NewRPCNode(n, "cli")
	ownMachines(n, "srv", "cli")
	wrapped := fmt.Errorf("lease store: %w", ErrTimeout)
	srv.Register("sync", func(string, any) (any, error) { return nil, errRefused })
	srv.RegisterAsync("async", func(_ string, _ any, reply *AsyncReply) {
		s.FireAfter(time.Millisecond, func() { reply.Reply(nil, wrapped) })
	})
	for _, c := range []struct {
		method string
		want   error
	}{{"sync", errRefused}, {"async", wrapped}} {
		var got error
		cli.Call("srv", c.method, nil, 0, time.Second, func(_ any, err error) { got = err })
		s.Run()
		if got != c.want {
			t.Errorf("%s handler's error arrived as %#v, want its own value %#v", c.method, got, c.want)
		}
	}
	if got := rec.Registry().Counter("simnet", "rpc_timeouts_total", obs.L("method", "async")).Value(); got != 0 {
		t.Errorf("rpc_timeouts_total = %d after a handler's wrapped timeout, want 0", got)
	}

	// A raw caller sends one request ID twice: the handler runs for each,
	// and each reply carries its value.
	raw := n.Node("raw")
	ownMachines(n, "raw")
	var replies []any
	raw.Handle(func(m Message) {
		if m.rpc.kind != kindError {
			t.Fatalf("raw caller got a %d message, want an error reply", m.rpc.kind)
		}
		replies = append(replies, m.Payload)
	})
	for range 2 {
		n.send(raw, Message{From: raw.addr, To: srv.node.addr, rpc: rpcHeader{kind: kindRequest, id: 1, text: "sync"}})
		s.Run()
	}
	if len(replies) != 2 || replies[0] != errRefused || replies[1] != errRefused {
		t.Fatalf("a request and its duplicate were answered %v, want errRefused twice", replies)
	}
}
