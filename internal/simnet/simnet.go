// Package simnet provides a simulated message-passing network for UStore
// components, built on the simtime discrete-event scheduler.
//
// A Network holds named Nodes, each placed on a machine (Colocate). Messages
// between nodes of one machine are loopback; every other message is delivered
// as a scheduled event after the network's hop latency plus serialization
// time (message size over link bandwidth). A unit's network (New) hops in
// 200 µs, a same-cluster datacenter hop; a fleet's (NewWithLatency) in 1 ms,
// a hop between deploy units.
//
// Faults and delays live at one level, the machine — the unit that has an
// uplink and a cable to lose. A non-local Send checks, in this order: either
// machine isolated (IsolateMachine), then the machine pair's link record —
// cut (CutMachines), loss dice (SetMachineLossRate), duplication dice
// (SetMachineDupRate) — and finally adds both machines' brownout penalties
// (SetMachineBrownout) to the delay. The network's RNG (Rand) is drawn only
// when a loss or duplication rate is positive, so a fault-free run consumes
// none.
//
// Names are interned. A name's first use (Node, Colocate, Addr, an RPC call)
// gives it a dense Addr, and a machine's a dense index, in the network's
// table, which also holds the machines' fault state. Registration, topology
// and fault calls write the table at quiescence; an RPC call to a new name
// may write it mid-run, which the scheduler's one goroutine keeps safe. A
// Message carries Addrs and a node record its machine index, so Send,
// delivery, and RPC dispatch and reply index slices and hash no string. A
// name is one index away (Name).
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"ustore/internal/obs"
	"ustore/internal/simtime"
)

// Message is a unit of delivery. Payload typing is left to the application
// protocols layered above (core RPCs, block protocol, paxos messages).
type Message struct {
	From    Addr
	To      Addr
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
// that drops a message gives the record back (Release). An RPC request may
// be Pooled: RPCNode gives it back once its handler returns (or once an
// unknown method is refused), so a handler copies what it keeps;
// CallWithRetry refuses one. A *Frame is pooled too, but by the
// networks' FrameLists, not through this interface.
type Pooled interface {
	// Dup returns a copy of the record, for a second delivery.
	Dup() any
	// Release gives back a record that will not be delivered.
	Release()
}

// Addr is a node's interned address: its index in its network's address
// table.
type Addr int32

// NoAddr is no node's address.
const NoAddr Addr = -1

// noMachine is the machine index of a node no Colocate has placed.
const noMachine int32 = -1

// Node is a network endpoint. Its record exists from the first use of its
// name; it joins a network when Network.Node registers it.
type Node struct {
	name    string
	addr    Addr
	mach    int32    // machine index, noMachine until Colocate places it
	net     *Network // nil until registered
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

// Send sends a message from this node. See Network.send.
func (n *Node) Send(to Addr, payload any, size int) {
	n.net.send(n, Message{From: n.addr, To: to, Payload: payload, Size: size})
}

// Every non-loopback link of a network is the same: its hop latency into a
// 1GbE NIC. New's hop is a same-cluster datacenter hop (RTT ≈ 0.4 ms), the
// paper's datacenter setting.
const (
	linkLatency   = 200 * time.Microsecond
	linkBandwidth = 125e6 // bytes/sec
)

// pairKey packs an unordered machine pair, smaller index first. A pair with
// an unplaced node (noMachine) matches no record.
func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(uint32(b))
}

// addrTable interns node and machine names and holds the machines' fault
// state (see the package comment).
type addrTable struct {
	addrs    map[string]Addr
	nodes    []*Node // by Addr
	machines map[string]int32
	// machs is per-machine fault state by machine index, grown by the
	// fault calls; a machine past its end has none.
	machs []machState
	// links holds machine-pair fault state (switch-port/cable faults),
	// keyed by pairKey: it applies uniformly to every node pair spanning the
	// two machines, which is how chaos injects partitions without
	// enumerating node names.
	links map[uint64]*machLink
}

func newAddrTable() *addrTable {
	return &addrTable{addrs: make(map[string]Addr), machines: make(map[string]int32),
		links: make(map[uint64]*machLink)}
}

// node returns name's record, interning the name on first use.
func (t *addrTable) node(name string) *Node {
	if a, ok := t.addrs[name]; ok {
		return t.nodes[a]
	}
	nd := &Node{name: name, addr: Addr(len(t.nodes)), mach: noMachine}
	t.addrs[name] = nd.addr
	t.nodes = append(t.nodes, nd)
	return nd
}

// machine returns a machine name's index, interning it on first use.
func (t *addrTable) machine(name string) int32 {
	m, ok := t.machines[name]
	if !ok {
		m = int32(len(t.machines))
		t.machines[name] = m
	}
	return m
}

// mach returns machine m's fault state for writing, growing machs to hold it.
func (t *addrTable) mach(m int32) *machState {
	if int(m) >= len(t.machs) {
		t.machs = append(t.machs, make([]machState, int(m)+1-len(t.machs))...)
	}
	return &t.machs[m]
}

// machAt returns machine m's fault state; an unplaced or untouched machine
// has none.
func (t *addrTable) machAt(m int32) machState {
	if uint(m) < uint(len(t.machs)) {
		return t.machs[m]
	}
	return machState{}
}

// link returns the one undirected record for a machine pair, making it on
// first use.
func (t *addrTable) link(a, b int32) *machLink {
	k := pairKey(a, b)
	l, ok := t.links[k]
	if !ok {
		l = &machLink{}
		t.links[k] = l
	}
	return l
}

// machState is one machine's fault state: an unplugged uplink
// (IsolateMachine) and a brownout's extra delay (SetMachineBrownout).
type machState struct {
	isolated bool
	brownout time.Duration
}

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
	// table interns names and holds the machines' fault state.
	table *addrTable
	// latency is every non-loopback hop's latency before serialization.
	latency time.Duration

	stats Stats

	// frames recycles the block protocol's wire frames (see FrameList).
	frames FrameList
	// deliveries recycles this network's messages in flight.
	deliveries simtime.FreeList[delivery]

	// Observability handles (nil-safe; SetRecorder fills them in).
	rec        *obs.Recorder
	cSent      *obs.Counter
	cDelivered *obs.Counter
	cDropped   *obs.Counter
	cBytes     *obs.Counter
	cDups      *obs.Counter
	cParts     *obs.Counter

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
	n.rpcMetrics = make(map[string]*rpcMethodMetrics)
	n.partSpans = make(map[string]*obs.Span)
}

// openPartition opens (or replaces) a partition-window span.
func (n *Network) openPartition(key, name string) {
	if n.rec == nil {
		return
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

// New creates an empty network on the given scheduler whose hops are
// same-cluster datacenter hops.
func New(sched *simtime.Scheduler) *Network { return NewWithLatency(sched, linkLatency) }

// NewWithLatency creates an empty network on the given scheduler whose
// every non-loopback hop takes latency plus serialization.
func NewWithLatency(sched *simtime.Scheduler, latency time.Duration) *Network {
	return &Network{sched: sched, table: newAddrTable(), latency: latency,
		rpcMetrics: make(map[string]*rpcMethodMetrics)}
}

// Scheduler returns the scheduler the network runs on.
func (n *Network) Scheduler() *simtime.Scheduler { return n.sched }

// Rand returns the scheduler's deterministic random source, which the
// network's dice and the processes on it draw from.
func (n *Network) Rand() *rand.Rand { return n.sched.Rand() }

// Node registers (or returns the existing) node with the given name.
func (n *Network) Node(name string) *Node {
	nd := n.table.node(name)
	if nd.net == nil {
		nd.net, nd.up = n, true
	}
	return nd
}

// Addr interns name, which need not have a node yet: a message to a name
// with none is dropped.
func (n *Network) Addr(name string) Addr { return n.table.node(name).addr }

// Name returns the name an Addr interns.
func (n *Network) Name(a Addr) string { return n.table.nodes[a].name }

// Stats returns a snapshot of network counters.
func (n *Network) Stats() Stats { return n.stats }

// Frames returns the network's wire-frame free list.
func (n *Network) Frames() *FrameList { return &n.frames }

// Colocate places a node on a physical machine. Messages between nodes of
// the same machine are loopback: zero latency and no network accounting
// (the process-to-process path inside one host).
func (n *Network) Colocate(node, machine string) {
	n.table.node(node).mach = n.table.machine(machine)
}

// machLink returns the record for a named machine pair, making it on first
// use.
func (n *Network) machLink(a, b string) *machLink {
	return n.table.link(n.table.machine(a), n.table.machine(b))
}

// mach returns a named machine's fault state for writing.
func (n *Network) mach(machine string) *machState {
	return n.table.mach(n.table.machine(machine))
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
	n.mach(machine).brownout = max(extra, 0)
}

// IsolateMachine unplugs a machine's uplink: all messages to or from any
// node on it are dropped. Loopback traffic between its own nodes still
// flows, so colocated processes (a master and its coord replica) keep
// talking — exactly the asymmetry real partitions have.
func (n *Network) IsolateMachine(machine string) {
	n.mach(machine).isolated = true
	n.openPartition("isolate:"+machine, "isolation")
}

// RejoinMachine plugs the uplink back in.
func (n *Network) RejoinMachine(machine string) {
	n.mach(machine).isolated = false
	n.closePartition("isolate:" + machine)
}

// MachineIsolated reports whether the machine's uplink is unplugged.
func (n *Network) MachineIsolated(machine string) bool {
	return n.table.machAt(n.table.machine(machine)).isolated
}

// send delivers msg from src after the hop latency plus serialization time
// and any brownout penalty. It is a no-op (counted as a drop) if the
// destination has no node, a machine-level fault severs the path
// (isolation, then cut), or the loss dice say so; a destination down at
// arrival drops it there. Local sends (same node or same machine) are
// delivered with zero latency on the next event.
func (n *Network) send(src *Node, msg Message) {
	n.stats.Sent++
	n.cSent.Inc()
	dst := n.table.nodes[msg.To]
	if dst.net == nil { // a name with no node
		n.drop(msg.Payload)
		return
	}
	local := src == dst || src.mach != noMachine && src.mach == dst.mach
	var delay time.Duration
	dup := false
	if !local {
		ma, mb := n.table.machAt(src.mach), n.table.machAt(dst.mach)
		ml := n.table.links[pairKey(src.mach, dst.mach)]
		switch {
		case ma.isolated, mb.isolated,
			ml != nil && ml.cut,
			ml != nil && ml.lossRate > 0 && n.sched.Rand().Float64() < ml.lossRate:
			n.drop(msg.Payload)
			return
		}
		dup = ml != nil && ml.dupRate > 0 && n.sched.Rand().Float64() < ml.dupRate
		delay = n.latency
		if msg.Size > 0 {
			delay += time.Duration(float64(msg.Size) / linkBandwidth * float64(time.Second))
		}
		delay += ma.brownout + mb.brownout
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

// delivery is a message in flight and its event's receiver.
type delivery struct {
	dst   *Node
	msg   Message
	local bool
}

func (n *Network) deliver(msg Message, dst *Node, delay time.Duration, local bool) {
	// FireAfterR: no owner cancels a delivery, so the scheduler may pool its
	// event — deliveries are the hottest timer source in any simulation.
	d, _ := n.deliveries.Get()
	d.dst, d.msg, d.local = dst, msg, local
	n.sched.FireAfterR(delay, d)
}

// Fire delivers the message, recycling the record first so the handler's
// own sends may reuse it.
func (d *delivery) Fire() {
	dst, msg, local := d.dst, d.msg, d.local
	*d = delivery{}
	dst.net.deliveries.Put(d)
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
