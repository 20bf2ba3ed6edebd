// Fabric: cross-lane message routing on one simtime.Engine.
//
// A Fabric stitches per-lane Networks into a single address space. A lane is
// one Network with its own record pools, counters and random stream, run on
// the engine's one scheduler. Sends whose destination is registered on
// another lane are forwarded through Engine.PostR, stamped at send-time +
// the engine's lookahead + serialization at the link bandwidth, and ordered
// at the flush by (deadline, sending lane, post order). Every cross-lane hop
// is therefore at least one lookahead long by construction — the
// conservative-synchrony contract the engine's Post check enforces — and a
// lane sees the same events in the same order it saw on a partition of its
// own (TestLanesMatchPartitions).
//
// The lanes share one address table, and with it one machine fault table:
// an isolation or cut set through any lane's Network holds for every lane.
// A cross-lane message honours only part of it: the source machine's
// isolation and the pair's cut, checked at send, and the destination
// machine's isolation, checked at delivery. Loss/dup dice and brownouts stay
// lane-local — cross-unit traffic in the fleet is unit-to-unit RPC whose
// failure modes are "the unit's uplink is gone" (isolation) and "these two
// units can't see each other" (a cut). Keeping the dice out of the cross
// path also keeps every lane's RNG stream untouched by other lanes' traffic,
// which the byte-determinism contract requires.
package simnet

import (
	"time"

	"ustore/internal/simtime"
)

// Fabric routes messages between the lanes of one simtime.Engine. Construct
// with NewFabric, then create each lane's Network with Fabric.Network.
//
// Topology and fault mutations — node registration, Colocate, isolations,
// cuts — must happen at engine quiescence (between RunUntil windows);
// message forwarding itself is safe from any lane mid-window.
type Fabric struct {
	engine *simtime.Engine
	nets   []*Network // by lane
	// table is the address and fault table every lane's Network shares: a
	// node record's net is its home lane's Network.
	table *addrTable
}

// NewFabric returns a fabric over the engine's lanes.
func NewFabric(engine *simtime.Engine) *Fabric {
	return &Fabric{engine: engine, table: newAddrTable()}
}

// Network returns lane l's Network, creating it on the engine's scheduler on
// first use. Lane 0 draws from the scheduler's own random stream and lane l
// from Engine.LaneRand(l), so a lane draws what it drew on a partition of
// its own.
func (f *Fabric) Network(l int) *Network {
	if l >= len(f.nets) {
		f.nets = append(f.nets, make([]*Network, l+1-len(f.nets))...)
	}
	if f.nets[l] == nil {
		n := newNetwork(f.engine.Part(l), f.table)
		if l != 0 {
			n.rng = f.engine.LaneRand(l)
		}
		n.fabric, n.lane = f, l
		f.nets[l] = n
	}
	return f.nets[l]
}

// forward routes a message from src to dst, a node registered on another
// lane. Runs mid-window in src's lane: of dst's network it touches only the
// record pool, so the destination-side checks wait for delivery time.
func (f *Fabric) forward(src, dst *Node, msg Message) {
	n := src.net
	if l := f.table.links[pairKey(src.mach, dst.mach)]; f.table.machAt(src.mach).isolated || l != nil && l.cut {
		n.drop(msg.Payload)
		return
	}
	delay := f.engine.Lookahead()
	if msg.Size > 0 {
		delay += time.Duration(float64(msg.Size) / linkBandwidth * float64(time.Second))
	}
	m := dst.net.remote.get()
	m.dst, m.msg = dst, msg
	f.engine.PostR(n.lane, n.sched.Now()+delay, m)
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
	if n.table.machAt(dst.mach).isolated {
		n.drop(msg.Payload)
		return
	}
	n.arrive(dst, msg, false)
}
