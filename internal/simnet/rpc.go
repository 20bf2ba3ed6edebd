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

// rpcRequest and rpcReply are the internal envelopes the RPC layer exchanges.
type rpcRequest struct {
	ID     uint64
	Method string
	Args   any
}

type rpcReply struct {
	ID     uint64
	Result any
	Err    string
}

// RPCHandler serves one method. Returning a non-nil error sends the error
// string to the caller instead of a result.
type RPCHandler func(from string, args any) (any, error)

// RPCAsyncHandler serves one method whose reply is produced later (e.g.
// after further scheduled events). reply must be called exactly once.
type RPCAsyncHandler func(from string, args any, reply func(result any, err error))

// RPCNode wraps a Node with request/response semantics: named methods on the
// server side, per-call timeouts and callbacks on the client side. All
// callbacks run on the scheduler goroutine.
//
// The server side deduplicates requests by (caller, request ID): a retried
// or duplicate-delivered request is answered from a cache of recent replies
// (or silently absorbed while the original async handler is still running)
// instead of re-executing the handler. Combined with CallWithRetry reusing
// one request ID across resends, this gives effectively-once execution over
// an at-least-once transport.
type RPCNode struct {
	node     *Node
	net      *Network
	methods  map[string]RPCHandler
	async    map[string]RPCAsyncHandler
	nextID   uint64
	pending  map[uint64]*pendingCall
	otherRaw Handler

	seen     map[dedupKey]rpcReply
	inflight map[dedupKey]bool
	lastID   map[string]uint64
	dedupN   int
}

type dedupKey struct {
	from string
	id   uint64
}

// dedupWindow is how far behind a caller's newest request ID a cached reply
// is kept; duplicates arrive within milliseconds, so a small window is
// plenty while keeping the cache bounded over long runs.
const dedupWindow = 128

type pendingCall struct {
	done    func(result any, err error)
	timeout *simtime.Event // nil (Cancel is nil-safe): no deadline
}

// NewRPCNode registers name on the network and installs the RPC dispatcher
// as its message handler.
func NewRPCNode(net *Network, name string) *RPCNode {
	r := &RPCNode{
		node:     net.Node(name),
		net:      net,
		methods:  make(map[string]RPCHandler),
		async:    make(map[string]RPCAsyncHandler),
		pending:  make(map[uint64]*pendingCall),
		seen:     make(map[dedupKey]rpcReply),
		inflight: make(map[dedupKey]bool),
		lastID:   make(map[string]uint64),
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
	r.methods[method] = h
}

// RegisterAsync installs a handler whose reply arrives later. The reply
// closure is safe to call from any subsequently scheduled event.
func (r *RPCNode) RegisterAsync(method string, h RPCAsyncHandler) {
	r.async[method] = h
}

// HandleRaw installs a handler for non-RPC payloads delivered to this node
// (e.g. one-way notifications sent with Node.Send).
func (r *RPCNode) HandleRaw(h Handler) { r.otherRaw = h }

// instrumentCall wraps a call's completion callback with RPC latency and
// trace recording: a span on the caller's track for the call's lifetime,
// the latency into simnet_rpc_seconds{method=...}, and a timeout counter.
// With no recorder bound it returns done unchanged (zero overhead).
func (r *RPCNode) instrumentCall(to, method string, done func(result any, err error)) func(result any, err error) {
	rec := r.net.rec
	if rec == nil {
		return done
	}
	span := rec.Begin("simnet", "rpc:"+method, r.Name(), obs.L("to", to))
	start := r.net.sched.Now()
	mm := r.net.methodMetrics(method)
	return func(result any, err error) {
		status := "ok"
		switch {
		case errors.Is(err, ErrTimeout):
			status = "timeout"
			mm.timeouts.Inc()
		case err != nil:
			status = "error"
		}
		mm.latency.ObserveDuration(r.net.sched.Now() - start)
		span.End(obs.L("status", status))
		if done != nil {
			done(result, err)
		}
	}
}

// Call sends an async request. done is invoked exactly once: with the reply,
// with a remote error, or with ErrTimeout. size is the request's nominal
// wire size in bytes.
func (r *RPCNode) Call(to, method string, args any, size int, timeout time.Duration, done func(result any, err error)) {
	done = r.instrumentCall(to, method, done)
	r.nextID++
	id := r.nextID
	pc := &pendingCall{done: done}
	r.pending[id] = pc
	if timeout > 0 {
		pc.timeout = r.net.sched.After(timeout, func() {
			if _, ok := r.pending[id]; !ok {
				return
			}
			delete(r.pending, id)
			if done != nil {
				done(nil, ErrTimeout)
			}
		})
	}
	r.node.Send(to, rpcRequest{ID: id, Method: method, Args: args}, size)
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
// deterministic jitter. The receiver's dedup cache makes the retries safe
// for non-idempotent methods. done fires exactly once — with the first
// reply to arrive, a remote error, or ErrTimeout after the final attempt.
// A healthy call consumes no RNG, so enabling retries does not perturb
// fault-free runs.
func (r *RPCNode) CallWithRetry(to, method string, args any, size int, o RetryOpts, done func(result any, err error)) {
	if o.Attempts <= 0 {
		o.Attempts = DefaultRetryAttempts
	}
	if o.Timeout <= 0 {
		o.Timeout = DefaultRetryTimeout
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultRetryBackoff
	}
	done = r.instrumentCall(to, method, done)
	r.nextID++
	id := r.nextID
	pc := &pendingCall{done: done}
	r.pending[id] = pc
	req := rpcRequest{ID: id, Method: method, Args: args}
	start := r.net.sched.Now()
	var attempt func(n int)
	attempt = func(n int) {
		if _, ok := r.pending[id]; !ok {
			return // an earlier attempt's reply already landed
		}
		if n > 0 {
			r.net.methodMetrics(method).retries.Inc()
			r.net.rec.Instant("simnet", "rpc-retry", r.Name(),
				obs.L("method", method), obs.L("to", to))
		}
		r.node.Send(to, req, size)
		pc.timeout = r.net.sched.After(o.Timeout, func() {
			if _, ok := r.pending[id]; !ok {
				return
			}
			overBudget := o.MaxElapsed > 0 && r.net.sched.Now()-start >= o.MaxElapsed
			if n+1 >= o.Attempts || overBudget {
				delete(r.pending, id)
				r.net.methodMetrics(method).exhausted.Inc()
				if done != nil {
					done(nil, ErrTimeout)
				}
				return
			}
			backoff := o.Backoff << uint(n)
			wait := time.Duration(1 + r.net.sched.Rand().Int63n(int64(backoff)))
			r.net.sched.After(wait, func() { attempt(n + 1) })
		})
	}
	attempt(0)
}

// remember caches a finished request's reply for duplicate suppression and
// periodically prunes entries that have fallen out of the caller's window.
func (r *RPCNode) remember(k dedupKey, rep rpcReply) {
	r.seen[k] = rep
	if k.id > r.lastID[k.from] {
		r.lastID[k.from] = k.id
	}
	r.dedupN++
	if r.dedupN >= 1024 {
		r.dedupN = 0
		for old := range r.seen {
			if old.id+dedupWindow < r.lastID[old.from] {
				delete(r.seen, old)
			}
		}
	}
}

func (r *RPCNode) dispatch(msg Message) {
	switch p := msg.Payload.(type) {
	case rpcRequest:
		k := dedupKey{from: msg.From, id: p.ID}
		if rep, ok := r.seen[k]; ok {
			r.net.cDedup.Inc()
			r.node.Send(msg.From, rep, 0) // duplicate of a served request
			return
		}
		if r.inflight[k] {
			r.net.cDedup.Inc()
			return // duplicate while the async handler runs; it will reply
		}
		if ah, ok := r.async[p.Method]; ok {
			from := msg.From
			replied := false
			r.inflight[k] = true
			ah(from, p.Args, func(result any, err error) {
				if replied {
					panic("simnet: async RPC handler replied twice")
				}
				replied = true
				delete(r.inflight, k)
				rep := rpcReply{ID: k.id, Result: result}
				if err != nil {
					rep.Err = err.Error()
				}
				r.remember(k, rep)
				r.node.Send(from, rep, 0)
			})
			return
		}
		h, ok := r.methods[p.Method]
		if !ok {
			r.node.Send(msg.From, rpcReply{ID: p.ID, Err: "unknown method " + p.Method}, 0)
			return
		}
		result, err := h(msg.From, p.Args)
		rep := rpcReply{ID: p.ID, Result: result}
		if err != nil {
			rep.Err = err.Error()
		}
		r.remember(k, rep)
		r.node.Send(msg.From, rep, 0)
	case rpcReply:
		pc, ok := r.pending[p.ID]
		if !ok {
			return // late reply after timeout; drop
		}
		delete(r.pending, p.ID)
		pc.timeout.Cancel()
		if pc.done == nil {
			return
		}
		if p.Err != "" {
			pc.done(nil, errors.New(p.Err))
		} else {
			pc.done(p.Result, nil)
		}
	default:
		if r.otherRaw != nil {
			r.otherRaw(msg)
		}
	}
}
