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
	// frames is the network's free list read responses go back to.
	frames *simnet.FrameList

	nextTag uint64
	pending map[uint64]*call

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

type call struct {
	done    func(Msg, error)
	timeout *simtime.Event
}

// NewInitiator creates a client endpoint named clientNode.
func NewInitiator(net *simnet.Network, clientNode string) *Initiator {
	ini := &Initiator{
		node:    net.Node(clientNode),
		sched:   net.Scheduler(),
		frames:  net.Frames(),
		pending: make(map[uint64]*call),
		Timeout: 2 * time.Second,
	}
	ini.node.Handle(ini.onMessage)
	return ini
}

func (ini *Initiator) onMessage(msg simnet.Message) {
	raw, ok := msg.Payload.([]byte)
	if !ok {
		return
	}
	var m Msg
	if _, err := m.decode(raw); err != nil {
		return
	}
	if c, ok := ini.pending[m.Tag]; ok {
		delete(ini.pending, m.Tag)
		c.timeout.Cancel()
		c.done(m, nil)
	}
	if m.Type == MsgReadResp {
		// Nobody holds the payload any more: the read's callback has returned
		// and with it the caller's claim, or — a reply that lost the race with
		// its timeout — the caller was already told ErrTimeout and never sees
		// it. Either way the frame can carry the next read. Only frames that
		// never arrive (dropped in flight) fall to the GC.
		ini.frames.Put(raw)
	}
}

// send issues m and arranges for done to see the reply or a timeout. m does
// not outlive the call (the frame is encoded here), so callers build it on
// the stack.
func (ini *Initiator) send(host string, m *Msg, done func(Msg, error)) {
	ini.nextTag++
	m.Tag = ini.nextTag
	if ini.OnComplete != nil {
		start := ini.sched.Now()
		volume := m.Volume
		inner := done
		done = func(reply Msg, err error) {
			ini.OnComplete(host, volume, ini.sched.Now()-start, err)
			inner(reply, err)
		}
	}
	c := &call{done: done}
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
	tag, typ := m.Tag, m.Type
	c.timeout = ini.sched.After(timeout, func() {
		if _, ok := ini.pending[tag]; !ok {
			return
		}
		delete(ini.pending, tag)
		done(Msg{}, fmt.Errorf("%w: %s to %s", ErrTimeout, typ, host))
	})
	ini.pending[tag] = c
	buf := m.Encode()
	ini.node.Send(TargetNode(host), buf, len(buf))
}

// Login opens a session to volume on host's target. done receives the
// volume size.
func (ini *Initiator) Login(host, volume string, done func(size int64, err error)) {
	ini.send(host, &Msg{Type: MsgLogin, Volume: volume}, func(m Msg, err error) {
		if err != nil {
			done(0, err)
			return
		}
		if e := m.Status.Err(); e != nil {
			done(0, e)
			return
		}
		done(int64(m.Size), nil)
	})
}

// Read reads length bytes at off from a logged-in volume. data is the
// payload of the response frame itself and is valid only until done returns
// (the frame is then recycled for another read): a done that keeps the bytes
// — stores them, passes them to an asynchronous call — must copy them first.
func (ini *Initiator) Read(host, volume string, off int64, length int, done func([]byte, error)) {
	ini.send(host, &Msg{Type: MsgRead, Volume: volume, Offset: uint64(off), Length: uint32(length)},
		func(m Msg, err error) {
			if err != nil {
				done(nil, err)
				return
			}
			if e := m.Status.Err(); e != nil {
				done(nil, e)
				return
			}
			done(m.Data, nil)
		})
}

// Write writes data at off to a logged-in volume.
func (ini *Initiator) Write(host, volume string, off int64, data []byte, done func(error)) {
	ini.send(host, &Msg{Type: MsgWrite, Volume: volume, Offset: uint64(off), Data: data},
		func(m Msg, err error) {
			if err != nil {
				done(err)
				return
			}
			done(m.Status.Err())
		})
}
