package simnet

import (
	"errors"
	"testing"
	"time"

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
