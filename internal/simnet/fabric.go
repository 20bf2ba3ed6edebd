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
// Topology mutations — node registration, Colocate, IsolateMachine — must
// happen at engine quiescence (between RunUntil windows); message forwarding
// itself is safe from any partition mid-window.
type Fabric struct {
	engine *simtime.Engine
	nets   []*Network
	// dir maps every node name to its home partition. Written at
	// quiescence when nodes register, read by every partition's sends
	// during windows.
	dir map[string]int
	// machines maps node name to machine fabric-wide, mirroring each
	// partition Network's Colocate calls. Same contract as dir: written at
	// quiescence, read mid-window by forward.
	machines map[string]string
	// machCuts holds severed machine pairs (keys normalized a<b). Mutated
	// only at engine quiescence via CutMachines/HealMachines.
	machCuts map[linkKey]bool
}

// NewFabric returns a fabric over the engine's partitions.
func NewFabric(engine *simtime.Engine) *Fabric {
	return &Fabric{
		engine:   engine,
		nets:     make([]*Network, engine.Parts()),
		dir:      make(map[string]int),
		machines: make(map[string]string),
		machCuts: make(map[linkKey]bool),
	}
}

// Network returns partition part's Network, creating it on the partition's
// scheduler on first use.
func (f *Fabric) Network(part int) *Network {
	if f.nets[part] == nil {
		n := New(f.engine.Part(part))
		n.fabric = f
		n.part = part
		f.nets[part] = n
	}
	return f.nets[part]
}

// register records a node's home partition; called from Network.Node.
func (f *Fabric) register(name string, part int) {
	f.dir[name] = part
}

// colocate mirrors a partition Network's Colocate into the fabric-wide
// registry so cross-partition sends can resolve both endpoints' machines.
func (f *Fabric) colocate(node, machine string) {
	f.machines[node] = machine
}

// CutMachines severs cross-partition traffic between two machines in both
// directions. Mutate only at engine quiescence (between RunUntil windows) —
// the same contract as node registration. Partition-local traffic between the
// machines is governed by each Network's own CutMachines.
func (f *Fabric) CutMachines(a, b string) {
	if a > b {
		a, b = b, a
	}
	f.machCuts[linkKey{a, b}] = true
}

// HealMachines restores cross-partition traffic between two machines.
func (f *Fabric) HealMachines(a, b string) {
	if a > b {
		a, b = b, a
	}
	delete(f.machCuts, linkKey{a, b})
}

// forward routes a message whose destination is not local to src. It reports
// false when the destination is unknown fabric-wide (the caller then counts
// the drop). Runs mid-window in src's partition: of dst it touches only the
// record pool, so the destination-side checks wait for delivery time.
func (f *Fabric) forward(src *Network, msg Message) bool {
	dstPart, ok := f.dir[msg.To]
	if !ok {
		return false
	}
	if ma := src.machines[msg.From]; ma != "" && src.isolatedMach[ma] {
		src.drop(msg.Payload)
		return true
	}
	if len(f.machCuts) > 0 {
		ma, mb := f.machines[msg.From], f.machines[msg.To]
		if ma != "" && mb != "" {
			if ma > mb {
				ma, mb = mb, ma
			}
			if f.machCuts[linkKey{ma, mb}] {
				src.drop(msg.Payload)
				return true
			}
		}
	}
	delay := f.engine.Lookahead()
	if msg.Size > 0 {
		delay += time.Duration(float64(msg.Size) / linkBandwidth * float64(time.Second))
	}
	dst := f.nets[dstPart]
	m := dst.remote.get()
	m.dst, m.msg = dst, msg
	f.engine.PostR(src.part, dstPart, src.sched.Now()+delay, m)
	return true
}

// remoteMsg is a cross-partition message in flight, pooled by the
// destination Network: the sending partition takes it, the destination
// returns it on delivery.
type remoteMsg struct {
	dst *Network
	msg Message
}

// Fire completes the delivery on the destination partition: the
// destination-side checks (machine isolation, node up, handler installed)
// are evaluated against delivery-time state, like a local delivery's.
func (m *remoteMsg) Fire() {
	n, msg := m.dst, m.msg
	n.remote.put(m)
	dst, ok := n.nodes[msg.To]
	if mb := n.machines[msg.To]; !ok || (mb != "" && n.isolatedMach[mb]) {
		n.drop(msg.Payload)
		return
	}
	n.arrive(dst, msg, false)
}
