// Package simnet provides a simulated message-passing network for UStore
// components, built on the simtime discrete-event scheduler.
//
// A Network holds named Nodes, each placed on a machine (Colocate). Messages
// between nodes of one machine are loopback; every other message is delivered
// as a scheduled event after the link latency plus serialization time (message
// size over link bandwidth).
//
// Faults and delays live at one level, the machine — the unit that has an
// uplink and a cable to lose. A non-local Send checks, in this order: either
// machine isolated (IsolateMachine), then the machine pair's link record —
// cut (CutMachines), loss dice (SetMachineLossRate), duplication dice
// (SetMachineDupRate) — and finally adds both machines' brownout penalties
// (SetMachineBrownout) to the delay. The scheduler's RNG is drawn only when a
// loss or duplication rate is positive, so a fault-free run consumes none.
package simnet

import (
	"fmt"
	"time"

	"ustore/internal/obs"
	"ustore/internal/simtime"
)

// Message is a unit of delivery. Payload typing is left to the application
// protocols layered above (core RPCs, block protocol, paxos messages).
type Message struct {
	From    string
	To      string
	Payload any
	// Size is the nominal size in bytes, used for serialization delay on
	// bandwidth-limited links. Zero means "control message" (latency only).
	Size int

	rpc rpcHeader // set on RPC requests and replies
}

// Handler receives delivered messages on a node.
type Handler func(msg Message)

// Pooled is a payload record its protocol recycles: the receiving handler
// gives it back once done with it, so each delivery needs a record of its
// own. Send gives a duplicated delivery its own record (Dup), and every path
// that drops a message gives the record back (Release). A *Frame is pooled
// too, but by the networks' FrameLists, not through this interface.
type Pooled interface {
	// Dup returns a copy of the record, for a second delivery.
	Dup() any
	// Release gives back a record that will not be delivered.
	Release()
}

// Node is a network endpoint.
type Node struct {
	name    string
	net     *Network
	handler Handler
	up      bool
}

// Name returns the node's unique name.
func (n *Node) Name() string { return n.name }

// SetDown makes the node drop all deliveries (simulates a crashed or
// partitioned-away process). Messages already in flight are dropped on
// arrival, loopback ones included. A down node can still send, so SetDown
// models a process that hears nothing, not even itself, while everything it
// sends still arrives.
func (n *Node) SetDown(down bool) { n.up = !down }

// Handle installs the delivery callback. Must be set before messages arrive;
// deliveries with no handler are counted as drops.
func (n *Node) Handle(h Handler) { n.handler = h }

// Send sends a message from this node. See Network.Send.
func (n *Node) Send(to string, payload any, size int) {
	n.net.Send(Message{From: n.name, To: to, Payload: payload, Size: size})
}

// Every non-loopback link is the same: a same-cluster datacenter hop (RTT ≈
// 0.4 ms) into a 1GbE NIC, the paper's datacenter setting.
const (
	linkLatency   = 200 * time.Microsecond
	linkBandwidth = 125e6 // bytes/sec
)

// linkKey names an unordered machine pair, smaller name first.
type linkKey struct{ a, b string }

// machLink is fault state between a pair of machines.
type machLink struct {
	cut      bool
	lossRate float64 // probability a message is dropped
	dupRate  float64 // probability a message is delivered twice
}

// Stats aggregates network counters.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Bytes     uint64
}

// Network is a collection of nodes placed on machines.
type Network struct {
	sched *simtime.Scheduler
	nodes map[string]*Node
	// machines maps node name -> physical machine. Two nodes on the same
	// machine exchange messages locally: no latency, no bandwidth charge,
	// no loss, and no contribution to network byte counters.
	machines map[string]string
	// machLinks holds machine-pair fault state (switch-port/cable faults):
	// it applies uniformly to every node pair spanning the two machines,
	// which is how chaos injects partitions without enumerating node names.
	machLinks map[linkKey]*machLink
	// isolatedMach marks machines whose uplink is unplugged: every message
	// in or out is dropped, loopback traffic still flows.
	isolatedMach map[string]bool
	// brownout is per-machine extra processing delay: a browned-out host
	// still answers everything, just slowly (CPU starvation, thermal
	// throttling, a noisy co-tenant). Applied to every non-loopback message
	// into or out of the machine.
	brownout map[string]time.Duration

	stats Stats

	// frames recycles the block protocol's wire frames (see FrameList).
	frames FrameList
	// deliveries recycles this partition's messages in flight; remote
	// recycles cross-partition ones addressed here, which the sending
	// partition takes.
	deliveries freeList[delivery]
	remote     freeList[remoteMsg]

	// Observability handles (nil-safe; SetRecorder fills them in).
	rec        *obs.Recorder
	cSent      *obs.Counter
	cDelivered *obs.Counter
	cDropped   *obs.Counter
	cBytes     *obs.Counter
	cDups      *obs.Counter
	cParts     *obs.Counter
	cDedup     *obs.Counter
	// fabric links this network into a multi-partition address space; nil
	// for a standalone (single-scheduler) network. part is this network's
	// partition index within the fabric's engine.
	fabric *Fabric
	part   int

	// rpcMetrics caches the per-method RPC series handles so the hot call
	// path resolves each method's series once instead of rebuilding the
	// label key on every call.
	rpcMetrics map[string]*rpcMethodMetrics
	// partSpans holds open partition-window spans, keyed by the pair or
	// machine the window covers, so Heal/Rejoin can close them.
	partSpans map[string]*obs.Span
}

// rpcMethodMetrics bundles the pre-resolved series for one RPC method.
type rpcMethodMetrics struct {
	latency   *obs.Histogram
	timeouts  *obs.Counter
	retries   *obs.Counter
	exhausted *obs.Counter
}

// methodMetrics returns (resolving on first use) the cached series handles
// for method. Handles are nil-safe, so this works with no recorder bound.
func (n *Network) methodMetrics(method string) *rpcMethodMetrics {
	if m, ok := n.rpcMetrics[method]; ok {
		return m
	}
	m := &rpcMethodMetrics{
		latency:   n.rec.Histogram("simnet", "rpc_seconds", obs.L("method", method)),
		timeouts:  n.rec.Counter("simnet", "rpc_timeouts_total", obs.L("method", method)),
		retries:   n.rec.Counter("simnet", "rpc_retry_attempts_total", obs.L("method", method)),
		exhausted: n.rec.Counter("simnet", "rpc_retry_exhausted_total", obs.L("method", method)),
	}
	if n.rpcMetrics == nil {
		n.rpcMetrics = make(map[string]*rpcMethodMetrics)
	}
	n.rpcMetrics[method] = m
	return m
}

// SetRecorder points the network's instrumentation at a run Recorder:
// send/deliver/drop/byte counters, duplicate deliveries, and partition
// windows as spans on the "net" track (machine-level cuts and isolations
// open a span closed by the matching heal/rejoin).
func (n *Network) SetRecorder(rec *obs.Recorder) {
	n.rec = rec
	n.cSent = rec.Counter("simnet", "msgs_sent_total")
	n.cDelivered = rec.Counter("simnet", "msgs_delivered_total")
	n.cDropped = rec.Counter("simnet", "msgs_dropped_total")
	n.cBytes = rec.Counter("simnet", "bytes_total")
	n.cDups = rec.Counter("simnet", "dup_deliveries_total")
	n.cParts = rec.Counter("simnet", "partitions_total")
	n.cDedup = rec.Counter("simnet", "rpc_dedup_hits_total")
	n.rpcMetrics = make(map[string]*rpcMethodMetrics)
}

// openPartition opens (or replaces) a partition-window span.
func (n *Network) openPartition(key, name string) {
	if n.rec == nil {
		return
	}
	if n.partSpans == nil {
		n.partSpans = make(map[string]*obs.Span)
	}
	if _, open := n.partSpans[key]; open {
		return
	}
	n.cParts.Inc()
	n.partSpans[key] = n.rec.Begin("simnet", name, "partitions", obs.L("pair", key))
}

// closePartition ends the window span opened for key, if any.
func (n *Network) closePartition(key string) {
	if sp, ok := n.partSpans[key]; ok {
		sp.End()
		delete(n.partSpans, key)
	}
}

// New creates an empty network on the given scheduler.
func New(sched *simtime.Scheduler) *Network {
	return &Network{
		sched:        sched,
		nodes:        make(map[string]*Node),
		machines:     make(map[string]string),
		machLinks:    make(map[linkKey]*machLink),
		isolatedMach: make(map[string]bool),
		brownout:     make(map[string]time.Duration),
	}
}

// Scheduler returns the scheduler the network runs on.
func (n *Network) Scheduler() *simtime.Scheduler { return n.sched }

// Node registers (or returns the existing) node with the given name.
func (n *Network) Node(name string) *Node {
	if nd, ok := n.nodes[name]; ok {
		return nd
	}
	nd := &Node{name: name, net: n, up: true}
	n.nodes[name] = nd
	if n.fabric != nil {
		n.fabric.register(name, n.part)
	}
	return nd
}

// Stats returns a snapshot of network counters.
func (n *Network) Stats() Stats { return n.stats }

// Frames returns the network's wire-frame free list.
func (n *Network) Frames() *FrameList { return &n.frames }

// Colocate places a node on a physical machine. Messages between nodes of
// the same machine are loopback: zero latency and no network accounting
// (the process-to-process path inside one host).
func (n *Network) Colocate(node, machine string) {
	n.machines[node] = machine
	if n.fabric != nil {
		n.fabric.colocate(node, machine)
	}
}

func (n *Network) machLink(a, b string) *machLink {
	if a > b {
		a, b = b, a // one undirected record per machine pair
	}
	k := linkKey{a, b}
	if l, ok := n.machLinks[k]; ok {
		return l
	}
	l := &machLink{}
	n.machLinks[k] = l
	return l
}

// lookupMachLink returns the fault record for a machine pair without
// allocating one ("" or same-machine pairs have none).
func (n *Network) lookupMachLink(a, b string) *machLink {
	if a == "" || b == "" || a == b {
		return nil
	}
	if a > b {
		a, b = b, a
	}
	return n.machLinks[linkKey{a, b}]
}

// CutMachines severs all traffic between two machines (in both directions):
// every node placed on a spans every node placed on b, present and future.
func (n *Network) CutMachines(a, b string) {
	n.machLink(a, b).cut = true
	if a > b {
		a, b = b, a
	}
	n.openPartition(a+"|"+b, "partition")
}

// HealMachines restores a machine-pair cut.
func (n *Network) HealMachines(a, b string) {
	n.machLink(a, b).cut = false
	if a > b {
		a, b = b, a
	}
	n.closePartition(a + "|" + b)
}

// SetMachineLossRate sets the drop probability for messages between two
// machines (a flaky inter-rack cable).
func (n *Network) SetMachineLossRate(a, b string, p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("simnet: machine loss rate %v out of [0,1]", p))
	}
	n.machLink(a, b).lossRate = p
}

// SetMachineDupRate sets the duplicate-delivery probability between two
// machines (retransmission storms; consensus must be idempotent).
func (n *Network) SetMachineDupRate(a, b string, p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("simnet: machine dup rate %v out of [0,1]", p))
	}
	n.machLink(a, b).dupRate = p
}

// SetMachineBrownout inflates every non-loopback message into or out of the
// machine by extra (0 clears it): RPC service-time inflation without any
// drop, the host-brownout gray failure. Both endpoints browned out pay both
// penalties.
func (n *Network) SetMachineBrownout(machine string, extra time.Duration) {
	if extra <= 0 {
		delete(n.brownout, machine)
		return
	}
	n.brownout[machine] = extra
}

// IsolateMachine unplugs a machine's uplink: all messages to or from any
// node on it are dropped. Loopback traffic between its own nodes still
// flows, so colocated processes (a master and its coord replica) keep
// talking — exactly the asymmetry real partitions have.
func (n *Network) IsolateMachine(machine string) {
	n.isolatedMach[machine] = true
	n.openPartition("isolate:"+machine, "isolation")
}

// RejoinMachine plugs the uplink back in.
func (n *Network) RejoinMachine(machine string) {
	delete(n.isolatedMach, machine)
	n.closePartition("isolate:" + machine)
}

// MachineIsolated reports whether the machine's uplink is unplugged.
func (n *Network) MachineIsolated(machine string) bool { return n.isolatedMach[machine] }

// sameMachine reports whether two nodes are loopback-local.
func (n *Network) sameMachine(a, b string) bool {
	if a == b {
		return true
	}
	ma, ok := n.machines[a]
	if !ok {
		return false
	}
	return ma == n.machines[b]
}

// Send delivers msg after the link latency plus serialization time and any
// brownout penalty. It is a no-op (counted as a drop) if the destination is
// unknown, a machine-level fault severs the path (isolation, then cut), or
// the loss dice say so; a destination down at arrival drops it there. Local sends
// (same node or same machine) are delivered with zero latency on the next
// event.
func (n *Network) Send(msg Message) {
	n.stats.Sent++
	n.cSent.Inc()
	dst, ok := n.nodes[msg.To]
	if !ok {
		// Not local: a fabric-connected network tries the cross-partition
		// path before counting the destination as unknown.
		if n.fabric == nil || !n.fabric.forward(n, msg) {
			n.drop(msg.Payload)
		}
		return
	}
	local := n.sameMachine(msg.From, msg.To)
	var delay time.Duration
	dup := false
	if !local {
		ma, mb := n.machines[msg.From], n.machines[msg.To]
		ml := n.lookupMachLink(ma, mb)
		switch {
		case ma != "" && n.isolatedMach[ma], mb != "" && n.isolatedMach[mb],
			ml != nil && ml.cut,
			ml != nil && ml.lossRate > 0 && n.sched.Rand().Float64() < ml.lossRate:
			n.drop(msg.Payload)
			return
		}
		dup = ml != nil && ml.dupRate > 0 && n.sched.Rand().Float64() < ml.dupRate
		delay = linkLatency
		if msg.Size > 0 {
			delay += time.Duration(float64(msg.Size) / linkBandwidth * float64(time.Second))
		}
		if ma != "" {
			delay += n.brownout[ma]
		}
		if mb != "" {
			delay += n.brownout[mb]
		}
	}
	if dup {
		// Deliver a copy a little later (retransmission). A retransmitted
		// frame is its own frame, taken from this (the sender's) network's
		// list: each delivery of wire bytes has one owner, who may recycle
		// or rewrite them. A lent body is copied in behind the header, so
		// the copy owns all its bytes and holds no lease. Any other pooled
		// record is duplicated by its protocol, for the same reason.
		n.cDups.Inc()
		jitter := delay + time.Duration(n.sched.Rand().Int63n(int64(time.Millisecond)))
		again := msg
		switch p := msg.Payload.(type) {
		case *Frame:
			cp := n.frames.Get(len(p.B) + len(p.Body))
			copy(cp.B[copy(cp.B, p.B):], p.Body)
			again.Payload = cp
		case Pooled:
			again.Payload = p.Dup()
		}
		n.deliver(again, dst, jitter, local)
	}
	n.deliver(msg, dst, delay, local)
}

// drop counts a message that will never be delivered and gives back its
// payload's record if the payload is Pooled. Every path that drops a
// message comes here.
func (n *Network) drop(payload any) {
	n.stats.Dropped++
	n.cDropped.Inc()
	if p, ok := payload.(Pooled); ok {
		p.Release()
	}
}

// delivery is a message in flight inside one partition and its event's receiver.
type delivery struct {
	dst   *Node
	msg   Message
	local bool
}

func (n *Network) deliver(msg Message, dst *Node, delay time.Duration, local bool) {
	// FireAfterR: no owner cancels a delivery, so the scheduler may pool its
	// event — deliveries are the hottest timer source in any simulation.
	d := n.deliveries.get()
	d.dst, d.msg, d.local = dst, msg, local
	n.sched.FireAfterR(delay, d)
}

// Fire delivers the message, recycling the record first so the handler's
// own sends may reuse it.
func (d *delivery) Fire() {
	dst, msg, local := d.dst, d.msg, d.local
	dst.net.deliveries.put(d)
	dst.net.arrive(dst, msg, local)
}

// arrive hands a message to its node, counting it; local (loopback)
// messages are no network bytes.
func (n *Network) arrive(dst *Node, msg Message, local bool) {
	if !dst.up || dst.handler == nil {
		n.drop(msg.Payload)
		return
	}
	n.stats.Delivered++
	n.cDelivered.Inc()
	if !local {
		n.stats.Bytes += uint64(msg.Size)
		n.cBytes.Add(uint64(msg.Size))
	}
	dst.handler(msg)
}

// freeList recycles records of one type. put zeroes a record, so a recycled
// one pins nothing its last user referenced.
type freeList[T any] []*T

func (l *freeList[T]) get() *T {
	n := len(*l)
	if n == 0 {
		return new(T)
	}
	x := (*l)[n-1]
	*l = (*l)[:n-1]
	return x
}

func (l *freeList[T]) put(x *T) {
	*x = *new(T)
	*l = append(*l, x)
}
