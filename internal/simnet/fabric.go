// Fabric: cross-lane message routing for the partitioned engine.
//
// A Fabric stitches per-lane Networks into a single address space. A lane is
// one Network with its own machine state, record pools and random stream; it
// runs either on a partition of its own (Network) or on partition 0's
// scheduler beside the other lanes (Lane). Sends whose destination is
// registered on another lane are forwarded through Engine.Post, stamped at
// send-time + the engine's lookahead + serialization at the link bandwidth,
// and ordered at the flush by (deadline, sending lane, post order). Every
// cross-lane hop is therefore at least one lookahead long by construction —
// the conservative-synchrony contract the engine's Post check enforces on the
// receiving side — and a lane sees the same events in the same order whether
// it has a partition of its own or shares one (TestLanesMatchPartitions).
//
// Like a Network, a Fabric knows faults at one level, the machine, and it
// deliberately supports only the fault surface the fleet uses across deploy
// units: machine isolation (checked on the source side at send
// and on the destination side at delivery) and pairwise machine cuts
// (CutMachines/HealMachines, checked on the source side). Loss/dup dice
// and brownouts remain lane-local — cross-unit traffic in
// the fleet is unit-to-unit RPC whose failure modes are "the unit's uplink is
// gone" (isolation) and "these two units can't see each other" (a cut).
// Keeping the dice out of the cross path also keeps every lane's RNG
// stream untouched by other lanes' traffic, which the byte-determinism
// contract requires.
package simnet

import (
	"time"

	"ustore/internal/simtime"
)

// Fabric routes messages between the lanes of one simtime.Engine. Construct
// with NewFabric, then create each lane's Network with Fabric.Network (a
// partition per lane) or Fabric.Lane (every lane on partition 0), not both.
//
// Topology mutations — node registration, Colocate, IsolateMachine, cuts —
// must happen at engine quiescence (between RunUntil windows); message
// forwarding itself is safe from any lane mid-window.
type Fabric struct {
	engine *simtime.Engine
	nets   []*Network // by lane
	// table is the address table every lane's Network shares: a node
	// record's net is its home lane's Network.
	table *addrTable
	// machCuts holds severed machine pairs by pairKey. Mutated only at
	// engine quiescence via CutMachines/HealMachines.
	machCuts map[uint64]bool
}

// NewFabric returns a fabric over the engine's partitions.
func NewFabric(engine *simtime.Engine) *Fabric {
	return &Fabric{
		engine:   engine,
		table:    newAddrTable(),
		machCuts: make(map[uint64]bool),
	}
}

// Network returns partition part's Network, lane part, creating it on the
// partition's scheduler on first use. It draws from the partition's own
// random stream.
func (f *Fabric) Network(part int) *Network { return f.lane(part, part) }

// Lane returns lane l's Network, creating it on partition 0's scheduler on
// first use. Lane 0 draws from that scheduler's own random stream and lane l
// from one seeded as partition l's would be (Engine.LaneRand), so a lane
// draws what it would on a partition of its own.
func (f *Fabric) Lane(l int) *Network { return f.lane(l, 0) }

func (f *Fabric) lane(l, part int) *Network {
	if l >= len(f.nets) {
		f.nets = append(f.nets, make([]*Network, l+1-len(f.nets))...)
	}
	if f.nets[l] == nil {
		n := New(f.engine.Part(part))
		if l != part {
			n.rng = f.engine.LaneRand(l)
		}
		n.table, n.fabric, n.lane, n.part = f.table, f, l, part
		f.nets[l] = n
	}
	return f.nets[l]
}

// CutMachines severs cross-lane traffic between two machines in both
// directions. Mutate only at engine quiescence (between RunUntil windows) —
// the same contract as node registration. Lane-local traffic between the
// machines is governed by each Network's own CutMachines.
func (f *Fabric) CutMachines(a, b string) {
	f.machCuts[pairKey(f.table.machine(a), f.table.machine(b))] = true
}

// HealMachines restores cross-lane traffic between two machines.
func (f *Fabric) HealMachines(a, b string) {
	delete(f.machCuts, pairKey(f.table.machine(a), f.table.machine(b)))
}

// forward routes a message from src to dst, a node registered on another
// lane. Runs mid-window in src's lane: of dst's network it touches only the
// record pool, so the destination-side checks wait for delivery time.
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
	f.engine.PostR(n.lane, dst.net.part, n.sched.Now()+delay, m)
}

// remoteMsg is a cross-lane message in flight, pooled by the destination
// Network: the sending lane takes it, the destination returns it on
// delivery.
type remoteMsg struct {
	dst *Node
	msg Message
}

// Fire completes the delivery on the destination lane: the
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
