// Fabric: cross-partition message routing for the partitioned engine.
//
// A Fabric stitches per-partition Networks — each running on one partition of
// a simtime.Engine — into a single address space. Sends whose destination is
// registered on another partition are forwarded through Engine.Post, stamped
// at send-time + the engine's lookahead + serialization at the link
// bandwidth. Every cross-partition hop is therefore at least one lookahead
// long by construction — the conservative-synchrony contract the engine's
// Post check enforces on the receiving side.
//
// Like a Network, a Fabric knows faults at one level, the machine, and it
// deliberately supports only the fault surface the fleet uses across deploy
// units: machine isolation (checked on the source side at send
// and on the destination side at delivery) and pairwise machine cuts
// (CutMachines/HealMachines, checked on the source side). Loss/dup dice
// and brownouts remain partition-local — cross-unit traffic in
// the fleet is unit-to-unit RPC whose failure modes are "the unit's uplink is
// gone" (isolation) and "these two units can't see each other" (a cut).
// Keeping the dice out of the cross path also keeps every partition's RNG
// stream untouched by other partitions' traffic, which the byte-determinism
// contract requires.
package simnet

import (
	"time"

	"ustore/internal/simtime"
)

// Fabric routes messages between Networks living on different partitions of
// one simtime.Engine. Construct with NewFabric, then create each partition's
// Network with Fabric.Network.
//
// Topology mutations — node registration, Colocate, IsolateMachine, cuts —
// must happen at engine quiescence (between RunUntil windows); message
// forwarding itself is safe from any partition mid-window.
type Fabric struct {
	engine *simtime.Engine
	nets   []*Network
	// table is the address table every partition's Network shares: a node
	// record's net is its home partition's Network.
	table *addrTable
	// machCuts holds severed machine pairs by pairKey. Mutated only at
	// engine quiescence via CutMachines/HealMachines.
	machCuts map[uint64]bool
}

// NewFabric returns a fabric over the engine's partitions.
func NewFabric(engine *simtime.Engine) *Fabric {
	return &Fabric{
		engine:   engine,
		nets:     make([]*Network, engine.Parts()),
		table:    newAddrTable(),
		machCuts: make(map[uint64]bool),
	}
}

// Network returns partition part's Network, creating it on the partition's
// scheduler on first use.
func (f *Fabric) Network(part int) *Network {
	if f.nets[part] == nil {
		n := New(f.engine.Part(part))
		n.table, n.fabric, n.part = f.table, f, part
		f.nets[part] = n
	}
	return f.nets[part]
}

// CutMachines severs cross-partition traffic between two machines in both
// directions. Mutate only at engine quiescence (between RunUntil windows) —
// the same contract as node registration. Partition-local traffic between the
// machines is governed by each Network's own CutMachines.
func (f *Fabric) CutMachines(a, b string) {
	f.machCuts[pairKey(f.table.machine(a), f.table.machine(b))] = true
}

// HealMachines restores cross-partition traffic between two machines.
func (f *Fabric) HealMachines(a, b string) {
	delete(f.machCuts, pairKey(f.table.machine(a), f.table.machine(b)))
}

// forward routes a message from src to dst, a node registered on another
// partition. Runs mid-window in src's partition: of dst's network it touches
// only the record pool, so the destination-side checks wait for delivery
// time.
func (f *Fabric) forward(src, dst *Node, msg Message) {
	n := src.net
	if n.machAt(src.mach).isolated || f.machCuts[pairKey(src.mach, dst.mach)] {
		n.drop(msg.Payload)
		return
	}
	delay := f.engine.Lookahead()
	if msg.Size > 0 {
		delay += time.Duration(float64(msg.Size) / linkBandwidth * float64(time.Second))
	}
	m := dst.net.remote.get()
	m.dst, m.msg = dst, msg
	f.engine.PostR(n.part, dst.net.part, n.sched.Now()+delay, m)
}

// remoteMsg is a cross-partition message in flight, pooled by the
// destination Network: the sending partition takes it, the destination
// returns it on delivery.
type remoteMsg struct {
	dst *Node
	msg Message
}

// Fire completes the delivery on the destination partition: the
// destination-side checks (machine isolation, node up, handler installed)
// are evaluated against delivery-time state, like a local delivery's.
func (m *remoteMsg) Fire() {
	dst, msg, n := m.dst, m.msg, m.dst.net
	n.remote.put(m)
	if n.machAt(dst.mach).isolated {
		n.drop(msg.Payload)
		return
	}
	n.arrive(dst, msg, false)
}
