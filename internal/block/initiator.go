package block

import (
	"errors"
	"fmt"
	"time"

	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// ErrTimeout is returned when a block request gets no reply in time (host
// crashed, disk switched away mid-flight).
var ErrTimeout = errors.New("block: request timeout")

// Initiator is the client side of the UBLK protocol over simnet — the
// piece the ClientLib uses to mount and access allocated storage. One
// Initiator serves one client node and may hold sessions to many targets.
type Initiator struct {
	node  *simnet.Node
	sched *simtime.Scheduler
	// frames is the network's free list: every request is encoded into one
	// of its frames, and every response goes back to it.
	frames *simnet.FrameList

	nextTag uint64
	pending map[uint64]*call
	// spent holds retired call records for the next request.
	spent []*call
	// targets caches each host's TargetNode name.
	targets map[string]string

	// Timeout bounds each request (default 2s, enough for a spun-down
	// disk's spin-up; failover remounts retry above this layer).
	Timeout time.Duration
	// AdaptiveTimeout, when set, supplies a per-target base timeout that
	// replaces Timeout (the large-IO size allowance is still added on
	// top). The ClientLib's gray-failure mitigation derives it from
	// observed latency so a fail-slow target times out in hundreds of
	// milliseconds instead of the worst-case static deadline. The target
	// is (host, volume): gray failures are per disk, so two volumes on one
	// host must not share a deadline model.
	AdaptiveTimeout func(host, volume string) time.Duration
	// OnComplete, when set, observes every request's outcome (round-trip
	// time or timeout) — the mitigation layer's latency feed.
	OnComplete func(host, volume string, rtt time.Duration, err error)
}

// call is one request in flight and its timeout's receiver. The reply or the
// timeout retires it, recycling the record before the caller's callback runs
// so the callback may reuse it; a reply that outlives its call finds the tag
// gone from pending and never reaches the record's next request.
type call struct {
	ini     *Initiator
	tag     uint64
	typ     MsgType
	host    string
	volume  string
	start   simtime.Time
	observe bool // OnComplete was set when the request went out
	timeout *simtime.Event
	// The caller's completion; the one that is set is the request's kind.
	login func(size int64, err error)
	read  func([]byte, error)
	write func(error)
}

// Fire is the call's timeout.
func (c *call) Fire() {
	c.ini.finish(c, Msg{}, fmt.Errorf("%w: %s to %s", ErrTimeout, c.typ, c.host))
}

// NewInitiator creates a client endpoint named clientNode.
func NewInitiator(net *simnet.Network, clientNode string) *Initiator {
	ini := &Initiator{
		node:    net.Node(clientNode),
		sched:   net.Scheduler(),
		frames:  net.Frames(),
		pending: make(map[uint64]*call),
		targets: make(map[string]string),
		Timeout: 2 * time.Second,
	}
	ini.node.Handle(ini.onMessage)
	return ini
}

func (ini *Initiator) onMessage(msg simnet.Message) {
	fr, ok := msg.Payload.(*simnet.Frame)
	if !ok {
		return
	}
	var m Msg
	if _, err := m.decode(fr.B, nil); err == nil {
		if c, ok := ini.pending[m.Tag]; ok {
			ini.finish(c, m, nil)
		}
	}
	// Nobody holds the frame any more: a read's callback has returned and
	// with it the caller's claim, or — a reply that lost the race with its
	// timeout — the caller was already told ErrTimeout and never sees it.
	// Either way the frame can carry the next response. Only frames that
	// never arrive (dropped in flight) fall to the GC.
	ini.frames.Put(fr)
}

// newCall returns a call record for the next request.
func (ini *Initiator) newCall() *call {
	if n := len(ini.spent); n > 0 {
		c := ini.spent[n-1]
		ini.spent[n-1] = nil
		ini.spent = ini.spent[:n-1]
		return c
	}
	return &call{ini: ini}
}

// send issues m as call c, whose completion the caller has set, and arms
// its timeout. m does not outlive the call (the frame is encoded here), so
// callers build it on the stack. Every request is encoded into a frame from
// the network's free list, which the target gives back once it has served
// the request (a write's once the volume is done with the payload): the
// caller's data is copied into the frame and never aliased by the wire.
func (ini *Initiator) send(host string, m *Msg, c *call) {
	ini.nextTag++
	m.Tag = ini.nextTag
	c.tag, c.typ, c.host, c.volume = m.Tag, m.Type, host, m.Volume
	c.start, c.observe = ini.sched.Now(), ini.OnComplete != nil
	timeout := ini.Timeout
	if ini.AdaptiveTimeout != nil {
		if t := ini.AdaptiveTimeout(host, m.Volume); t > 0 {
			timeout = t
		}
	}
	// Large IOs get proportionally more time on a 1GbE link.
	if n := len(m.Data); n > 0 {
		timeout += time.Duration(float64(n) / 50e6 * float64(time.Second))
	}
	c.timeout = ini.sched.AfterR(timeout, c)
	ini.pending[c.tag] = c
	fr := ini.frames.Get(m.frameLen())
	m.encodeInto(fr.B)
	to, ok := ini.targets[host]
	if !ok {
		to = TargetNode(host)
		ini.targets[host] = to
	}
	ini.node.Send(to, fr, len(fr.B))
}

// finish retires c with the reply or error and hands the outcome to the
// caller.
func (ini *Initiator) finish(c *call, reply Msg, err error) {
	delete(ini.pending, c.tag)
	c.timeout.Cancel()
	c.timeout.Release()
	if c.observe {
		ini.OnComplete(c.host, c.volume, ini.sched.Now()-c.start, err)
	}
	login, read, write := c.login, c.read, c.write
	*c = call{ini: ini}
	ini.spent = append(ini.spent, c)
	if err == nil {
		err = reply.Status.Err()
	}
	switch {
	case login != nil:
		if err != nil {
			login(0, err)
			return
		}
		login(int64(reply.Size), nil)
	case read != nil:
		if err != nil {
			read(nil, err)
			return
		}
		read(reply.Data, nil)
	default:
		write(err)
	}
}

// Login opens a session to volume on host's target. done receives the
// volume size.
func (ini *Initiator) Login(host, volume string, done func(size int64, err error)) {
	c := ini.newCall()
	c.login = done
	ini.send(host, &Msg{Type: MsgLogin, Volume: volume}, c)
}

// Read reads length bytes at off from a logged-in volume. data is the
// payload of the response frame itself and is valid only until done returns
// (the frame is then recycled for another read): a done that keeps the bytes
// — stores them, passes them to an asynchronous call — must copy them first.
func (ini *Initiator) Read(host, volume string, off int64, length int, done func([]byte, error)) {
	c := ini.newCall()
	c.read = done
	ini.send(host, &Msg{Type: MsgRead, Volume: volume, Offset: uint64(off), Length: uint32(length)}, c)
}

// ReadDiscard is Read for a caller that only times its reads: the bytes are
// read, CRC-verified and timed on the link, but done's data is empty.
func (ini *Initiator) ReadDiscard(host, volume string, off int64, length int, done func([]byte, error)) {
	c := ini.newCall()
	c.read = done
	ini.send(host, &Msg{Type: MsgRead, Volume: volume, Offset: uint64(off), Length: uint32(length), Discard: true}, c)
}

// Write writes data at off to a logged-in volume. data is copied into the
// request's frame before Write returns, so the wire never aliases it and the
// caller may reuse it at once.
func (ini *Initiator) Write(host, volume string, off int64, data []byte, done func(error)) {
	c := ini.newCall()
	c.write = done
	ini.send(host, &Msg{Type: MsgWrite, Volume: volume, Offset: uint64(off), Data: data}, c)
}
