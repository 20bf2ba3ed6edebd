package simnet

import (
	"errors"
	"time"

	"ustore/internal/obs"
	"ustore/internal/simtime"
)

// ErrTimeout is returned to an RPC callback when no reply arrives within the
// deadline.
var ErrTimeout = errors.New("simnet: rpc timeout")

// rpcHeader is the RPC envelope. It travels by value in Message, so a
// request or reply boxes nothing beyond its payload: args, a result, or
// the handler's error.
type rpcHeader struct {
	kind uint8 // 0 for a raw message, else kindRequest, kindReply or kindError
	id   uint64
	text string // a request's method
}

const (
	kindRequest uint8 = 1 + iota
	kindReply         // the payload is the result
	kindError         // the payload is the handler's error
)

// RPCHandler serves one method. Returning a non-nil error sends that error
// value to the caller instead of a result. args are valid until the handler
// returns; copy what you keep (a Pooled request goes back to its sender's
// list then).
type RPCHandler func(from string, args any) (any, error)

// RPCAsyncHandler serves one method whose reply is produced later (e.g.
// after further scheduled events). reply.Reply must be called exactly once.
// args are valid until the handler returns, not until it replies; copy what
// you keep.
type RPCAsyncHandler func(from string, args any, reply *AsyncReply)

// Replier receives a call's outcome: the result, a remote error, or
// ErrTimeout. A record that is its own Replier costs no closure per call.
// Reply data is read-only: the server may share it with its own state.
type Replier interface{ Reply(result any, err error) }

// replyFunc adapts a plain callback; nil means nobody is waiting.
type replyFunc func(result any, err error)

func (f replyFunc) Reply(result any, err error) {
	if f != nil {
		f(result, err)
	}
}

// AsyncReply is an async handler's pending answer. The handler owns it until
// it calls Reply, exactly once; the record then returns to the node's free
// list and may be answering another request. It carries its caller's
// address and the request ID, so Reply looks nothing up.
type AsyncReply struct {
	r  *RPCNode
	to Addr
	id uint64
}

// Reply answers the request. It may be called from any subsequently
// scheduled event.
func (a *AsyncReply) Reply(result any, err error) {
	r, to, id := a.r, a.to, a.id
	if r == nil {
		panic("simnet: async RPC handler replied twice")
	}
	*a = AsyncReply{}
	r.replies.Put(a)
	r.reply(to, id, result, err)
}

// RPCNode wraps a Node with request/response semantics: named methods on the
// server side, per-call timeouts and callbacks on the client side. All
// callbacks run on the scheduler goroutine.
//
// The server keeps no record of the requests it served: every delivery of a
// request, a CallWithRetry resend or a network duplicate, runs its handler,
// and the caller takes the first reply to its call ID. A handler that a
// resend or a duplicate can reach is made safe by its protocol (a request
// key, a sequence number, or an operation that is idempotent by
// construction), not by the transport.
type RPCNode struct {
	node     *Node
	net      *Network
	methods  map[string]rpcMethod
	nextID   uint64
	pending  map[uint64]*pendingCall
	calls    simtime.FreeList[pendingCall]
	retriers simtime.FreeList[retrier]
	replies  simtime.FreeList[AsyncReply]
}

// rpcMethod is one method's handlers: an async one wins over a sync one.
type rpcMethod struct {
	sync  RPCHandler
	async RPCAsyncHandler
}

// pendingCall is one outstanding call and its timeout's receiver, recycled
// when the call completes. A reply that outlives the call finds its ID gone
// from pending, and so never reaches the record's next call.
type pendingCall struct {
	r       *RPCNode
	id      uint64
	done    Replier
	timeout *simtime.Event // nil (Cancel and Release are nil-safe): no deadline
	retry   *retrier       // CallWithRetry's resend state; nil for a plain Call
}

// Fire is the call's timeout: fail it, unless it schedules a resend.
func (pc *pendingCall) Fire() {
	if pc.retry == nil || !pc.retry.backoff() {
		pc.r.complete(pc, nil, ErrTimeout)
	}
}

// complete retires a call and hands its outcome to the caller, recycling the
// records and its timeout event first so the callback may reuse them. A
// retrier whose resend is armed stays out: its event still holds it.
func (r *RPCNode) complete(pc *pendingCall, result any, err error) {
	delete(r.pending, pc.id)
	pc.timeout.Cancel()
	pc.timeout.Release()
	if rt := pc.retry; rt != nil && !rt.armed {
		*rt = retrier{}
		r.retriers.Put(rt)
	}
	done := pc.done
	*pc = pendingCall{}
	r.calls.Put(pc)
	done.Reply(result, err)
}

// NewRPCNode registers name on the network and installs the RPC dispatcher
// as its message handler.
func NewRPCNode(net *Network, name string) *RPCNode {
	r := &RPCNode{
		node:    net.Node(name),
		net:     net,
		methods: make(map[string]rpcMethod),
		pending: make(map[uint64]*pendingCall),
	}
	r.node.Handle(r.dispatch)
	return r
}

// Name returns the underlying node name.
func (r *RPCNode) Name() string { return r.node.Name() }

// Node returns the underlying network node (for Up/SetDown).
func (r *RPCNode) Node() *Node { return r.node }

// Register installs a handler for method. Re-registering replaces it.
func (r *RPCNode) Register(method string, h RPCHandler) {
	r.methods[method] = rpcMethod{sync: h, async: r.methods[method].async}
}

// RegisterAsync installs a handler whose reply arrives later, through the
// AsyncReply record it is handed.
func (r *RPCNode) RegisterAsync(method string, h RPCAsyncHandler) {
	r.methods[method] = rpcMethod{sync: r.methods[method].sync, async: h}
}

// instrumentCall wraps a call's completion callback with RPC latency and
// trace recording: a span on the caller's track for the call's lifetime,
// the latency into simnet_rpc_seconds{method=...}, and a timeout counter.
// With no recorder bound it returns done unchanged (zero overhead).
func (r *RPCNode) instrumentCall(to, method string, done Replier) Replier {
	rec := r.net.rec
	if rec == nil {
		return done
	}
	span := rec.Begin("simnet", "rpc:"+method, r.Name(), obs.L("to", to))
	start := r.net.sched.Now()
	mm := r.net.methodMetrics(method)
	return replyFunc(func(result any, err error) {
		status := "ok"
		switch {
		case err == ErrTimeout: // this call's own; a handler's wrapped timeout is a remote error
			status = "timeout"
			mm.timeouts.Inc()
		case err != nil:
			status = "error"
		}
		mm.latency.ObserveDuration(r.net.sched.Now() - start)
		span.End(obs.L("status", status))
		done.Reply(result, err)
	})
}

// Call sends an async request. done is invoked exactly once: with the reply,
// with a remote error, or with ErrTimeout. size is the request's nominal
// wire size in bytes.
func (r *RPCNode) Call(to, method string, args any, size int, timeout time.Duration, done func(result any, err error)) {
	r.CallR(to, method, args, size, timeout, replyFunc(done))
}

// CallR is Call with a non-nil receiver in place of a callback.
func (r *RPCNode) CallR(to, method string, args any, size int, timeout time.Duration, done Replier) {
	done = r.instrumentCall(to, method, done)
	r.nextID++
	pc, _ := r.calls.Get()
	pc.r, pc.id, pc.done = r, r.nextID, done
	r.pending[pc.id] = pc
	if timeout > 0 {
		pc.timeout = r.net.sched.AfterR(timeout, pc)
	}
	r.send(r.net.Addr(to), args, size, rpcHeader{kind: kindRequest, id: pc.id, text: method})
}

func (r *RPCNode) send(to Addr, payload any, size int, h rpcHeader) {
	r.net.send(r.node, Message{From: r.node.addr, To: to, Payload: payload, Size: size, rpc: h})
}

// RetryOpts tunes CallWithRetry. Zero values pick the defaults.
type RetryOpts struct {
	// Attempts is the maximum number of sends (first try included).
	Attempts int
	// Timeout is the per-attempt reply deadline.
	Timeout time.Duration
	// Backoff is the ceiling of the wait before the second send; it doubles
	// each further attempt. The actual wait is drawn uniformly from
	// (0, ceiling] ("full jitter", seeded from the scheduler RNG): after a
	// partition heals, every blocked client's retry clock fires at once, and
	// anything short of full-range jitter re-synchronizes the fleet into
	// retry storms against the recovering server.
	Backoff time.Duration
	// MaxElapsed caps the total time spent retrying: once this much time has
	// passed since the first send, a timed-out attempt fails the call instead
	// of re-sending, even with attempts left. Zero means no cap (attempts
	// alone bound the call). Under overload this is the difference between a
	// bounded retry budget and open-loop retry amplification feeding the
	// storm that caused the timeouts.
	MaxElapsed time.Duration
}

// Defaults for RetryOpts zero values.
const (
	DefaultRetryAttempts = 3
	DefaultRetryTimeout  = time.Second
	DefaultRetryBackoff  = 100 * time.Millisecond
)

// CallWithRetry is Call with capped retransmission: if an attempt times out
// the same request (same ID) is re-sent after an exponential backoff with
// deterministic jitter. The server runs its handler for every send that
// arrives, so the method must be safe to repeat: idempotent, or keyed by
// its caller so the server recognises the repeat. done fires exactly once — with the first
// reply to arrive, a remote error, or ErrTimeout after the final attempt.
// A healthy call consumes no RNG, so enabling retries does not perturb
// fault-free runs. args must not be Pooled: each resend sends them again,
// and the first delivery gives a Pooled record back.
func (r *RPCNode) CallWithRetry(to, method string, args any, size int, o RetryOpts, done func(result any, err error)) {
	if _, ok := args.(Pooled); ok {
		panic("simnet: CallWithRetry resends its args, so they must not be Pooled")
	}
	if o.Attempts <= 0 {
		o.Attempts = DefaultRetryAttempts
	}
	if o.Timeout <= 0 {
		o.Timeout = DefaultRetryTimeout
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultRetryBackoff
	}
	r.CallR(to, method, args, size, o.Timeout, replyFunc(done))
	rt, _ := r.retriers.Get()
	rt.r, rt.pc, rt.id = r, r.pending[r.nextID], r.nextID
	rt.to, rt.method, rt.args, rt.size, rt.o = to, method, args, size, o
	rt.start = r.net.sched.Now()
	rt.pc.retry = rt
}

// retrier is one CallWithRetry call's resend state and its backoff's
// receiver. It belongs to its RPCNode from CallWithRetry until the call
// completes with no resend armed, or, when one is armed, until that resend
// fires and finds the call gone.
type retrier struct {
	r      *RPCNode
	pc     *pendingCall
	id     uint64
	to     string
	method string
	args   any
	size   int
	o      RetryOpts
	start  simtime.Time
	n      int32 // resends sent so far
	armed  bool  // a backoff event holds the record
}

// backoff runs when an attempt times out: it arms the resend after a
// jittered backoff, or reports false when the attempts or the time budget
// are spent.
func (rt *retrier) backoff() bool {
	r := rt.r
	if int(rt.n)+1 >= rt.o.Attempts || rt.o.MaxElapsed > 0 && r.net.sched.Now()-rt.start >= rt.o.MaxElapsed {
		r.net.methodMetrics(rt.method).exhausted.Inc()
		return false
	}
	rt.pc.timeout.Release()
	rt.pc.timeout = nil
	backoff := rt.o.Backoff << uint(rt.n)
	rt.armed = true
	r.net.sched.FireAfterR(time.Duration(1+r.net.sched.Rand().Int63n(int64(backoff))), rt)
	return true
}

// Fire is the backoff's end: resend the request under its call ID, unless
// an earlier attempt's reply already completed the call.
func (rt *retrier) Fire() {
	r := rt.r
	rt.armed = false
	if r.pending[rt.id] != rt.pc {
		*rt = retrier{}
		r.retriers.Put(rt)
		return
	}
	rt.n++
	r.net.methodMetrics(rt.method).retries.Inc()
	if r.net.rec != nil { // the variadic labels would escape even to a nil recorder
		r.net.rec.Instant("simnet", "rpc-retry", r.Name(), obs.L("method", rt.method), obs.L("to", rt.to))
	}
	r.send(r.net.Addr(rt.to), rt.args, rt.size, rpcHeader{kind: kindRequest, id: rt.id, text: rt.method})
	rt.pc.timeout = r.net.sched.AfterR(rt.o.Timeout, rt.pc)
}

// reply sends an outcome: the result, or the error in the payload slot.
func (r *RPCNode) reply(to Addr, id uint64, result any, err error) {
	kind, payload := kindReply, result
	if err != nil {
		kind, payload = kindError, err
	}
	r.send(to, payload, 0, rpcHeader{kind: kind, id: id})
}

func (r *RPCNode) dispatch(msg Message) {
	switch h := msg.rpc; h.kind {
	case kindRequest:
		r.serve(msg, h)
		// The request is done with: its handler has returned, or an
		// unknown method was refused.
		if p, ok := msg.Payload.(Pooled); ok {
			p.Release()
		}
	case kindReply:
		if pc, ok := r.pending[h.id]; ok { // else a late reply after timeout; drop
			r.complete(pc, msg.Payload, nil)
		}
	case kindError:
		if pc, ok := r.pending[h.id]; ok {
			r.complete(pc, nil, msg.Payload.(error))
		}
	}
}

// serve runs a request's handler, or refuses an unknown method.
func (r *RPCNode) serve(msg Message, h rpcHeader) {
	m := r.methods[h.text]
	switch {
	case m.async != nil:
		a, _ := r.replies.Get()
		a.r, a.to, a.id = r, msg.From, h.id
		m.async(r.net.Name(msg.From), msg.Payload, a)
	case m.sync != nil:
		result, err := m.sync(r.net.Name(msg.From), msg.Payload)
		r.reply(msg.From, h.id, result, err)
	default:
		r.reply(msg.From, h.id, nil, errors.New("unknown method "+h.text))
	}
}
