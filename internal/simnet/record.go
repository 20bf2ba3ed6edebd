package simnet

import "ustore/internal/simtime"

// Record is a Pooled message sent by pointer, so its send boxes nothing.
// Each delivery has a record of its own from its sender's list, home (a
// duplicate takes a new one, Dup). It is valid until its receiver is done
// with it: a raw handler gives it back when it returns, RPCNode when a
// request's handler returns, and the network when it drops it (Release).
// A receiver copies what it keeps. A record in flight is on no list, so
// one that arrives after its sender gave up still carries its message.
type Record[T any] struct {
	Msg  T
	home *Records[T]
}

// Records is one sender's free list of Records, given back by whichever
// node received them.
type Records[T any] struct{ simtime.FreeList[Record[T]] }

// Take returns a record of msg for one delivery.
func (l *Records[T]) Take(msg T) *Record[T] {
	r, fresh := l.Get()
	if fresh {
		r.home = l
	}
	r.Msg = msg
	return r
}

// Dup returns a record of its own for a duplicated delivery.
func (r *Record[T]) Dup() any { return r.home.Take(r.Msg) }

// Release gives the record back to its home list, its message zeroed so it
// pins nothing, or overwritten by RecordPoison when a test set it: a
// receiver that kept a record past its turn then reads garbage.
func (r *Record[T]) Release() {
	if RecordPoison != nil {
		RecordPoison(&r.Msg)
	} else {
		r.Msg = *new(T)
	}
	r.home.Put(r)
}

// RecordPoison is set only by tests; it is passed a pointer to the message.
var RecordPoison func(msg any)
