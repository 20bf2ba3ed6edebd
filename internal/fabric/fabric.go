// Package fabric implements UStore's fat-tree interconnect fabric (§III of
// the paper): the topology of USB hubs and 2:1 switches that connects every
// disk of a deploy unit to one of several hosts, the control plane that
// reconfigures it (dual XOR-ed microcontrollers, power relays), and
// Algorithm 1 — the Controller's procedure for computing which switches to
// turn to execute a "connect disk A to host H" command without disturbing
// other disks.
//
// A fabric is a DAG. Disks and hubs have exactly one upstream attachment;
// a switch has one downstream slot and two alternative upstream attachments,
// of which its selection bit picks one. Any assignment of switch bits
// partitions the fabric into non-overlapping trees, each rooted at a host's
// root port (§III-A).
//
// USB switches and SATA-USB bridges are electrically transparent: they do
// not appear in the USB tree a host enumerates (§IV-E), so the "visible
// tree" a host sees contains only hubs and storage devices. The fabric
// package maintains that visible tree per host through the usb package,
// including enumeration delays when subtrees move between hosts.
package fabric

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a fabric node.
type NodeID string

// Kind enumerates fabric node kinds.
type Kind int

const (
	// KindRootPort is a host's USB 3.0 port (tree root).
	KindRootPort Kind = iota
	// KindHub is a USB hub with FanIn downstream slots.
	KindHub
	// KindSwitch is a 2:1 multiplexer: one downstream, two upstreams.
	KindSwitch
	// KindDisk is a leaf: SATA disk + USB bridge (one failure unit).
	KindDisk
)

// Attachment is a (parent node, downstream slot) pair.
type Attachment struct {
	Parent NodeID
	Slot   int
}

// Node is one element of the fabric graph.
type Node struct {
	ID   NodeID
	Kind Kind
	// Host is set for root ports: the owning host.
	Host string
	// FanIn is the downstream slot count (hubs; root ports have 1).
	FanIn int
	// Up is the single upstream attachment for disks and hubs.
	Up Attachment
	// Ups are the two alternative upstream attachments for switches.
	Ups [2]Attachment
	// Sel is the switch selection bit (which of Ups is connected).
	Sel int
	// Failed marks a dead component (hub burned out, bridge dead, ...).
	Failed bool
	// Powered is false when the control plane has cut this node's supply
	// (disks and hubs have controllable 12V relays, §III-B).
	Powered bool
}

// Fabric is the interconnect graph plus its control state.
type Fabric struct {
	nodes map[NodeID]*Node
	// down[parent][slot] lists what is plugged into each slot: either a
	// disk/hub (its Up points here) or a switch upstream side.
	down map[NodeID]map[int]NodeID
	// hosts in deterministic order.
	hosts []string

	// observers
	onSwitchTurn func(sw NodeID, oldSel, newSel int)
}

// New creates an empty fabric.
func New() *Fabric {
	return &Fabric{
		nodes: make(map[NodeID]*Node),
		down:  make(map[NodeID]map[int]NodeID),
	}
}

// OnSwitchTurn installs an observer for switch turns (used by the attach
// layer to move USB subtrees and by tests).
func (f *Fabric) OnSwitchTurn(fn func(sw NodeID, oldSel, newSel int)) { f.onSwitchTurn = fn }

// Node returns the node or nil.
func (f *Fabric) Node(id NodeID) *Node { return f.nodes[id] }

// Hosts returns the fabric's hosts in deterministic order.
func (f *Fabric) Hosts() []string {
	out := make([]string, len(f.hosts))
	copy(out, f.hosts)
	return out
}

// Disks returns all disk node IDs, sorted.
func (f *Fabric) Disks() []NodeID { return f.byKind(KindDisk) }

// Hubs returns all hub node IDs, sorted.
func (f *Fabric) Hubs() []NodeID { return f.byKind(KindHub) }

// Switches returns all switch node IDs, sorted.
func (f *Fabric) Switches() []NodeID { return f.byKind(KindSwitch) }

func (f *Fabric) byKind(k Kind) []NodeID {
	var out []NodeID
	for id, n := range f.nodes {
		if n.Kind == k {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Errors returned by fabric construction and routing.
var (
	// ErrDuplicateNode is returned when adding an existing node ID.
	ErrDuplicateNode = errors.New("fabric: duplicate node id")
	// ErrSlotTaken is returned when two nodes claim the same parent slot.
	ErrSlotTaken = errors.New("fabric: parent slot already wired")
	// ErrNoPath is returned when a disk cannot reach the requested host
	// under any switch assignment.
	ErrNoPath = errors.New("fabric: no path to host")
	// ErrBrokenPath is returned when the current path traverses a failed
	// or unpowered component.
	ErrBrokenPath = errors.New("fabric: path broken")
	// ErrConflict is Algorithm 1's error: executing the command would
	// disturb disks not named in it.
	ErrConflict = errors.New("fabric: switch conflict")
)

// AddRootPort adds host's root port node (ID "root:<host>").
func (f *Fabric) AddRootPort(host string) (NodeID, error) {
	id := NodeID("root:" + host)
	if _, dup := f.nodes[id]; dup {
		return "", fmt.Errorf("%w: %s", ErrDuplicateNode, id)
	}
	f.nodes[id] = &Node{ID: id, Kind: KindRootPort, Host: host, FanIn: 1, Powered: true}
	f.hosts = append(f.hosts, host)
	sort.Strings(f.hosts)
	return id, nil
}

// AddHub adds a hub with fanIn downstream slots, attached at up.
func (f *Fabric) AddHub(id NodeID, fanIn int, up Attachment) error {
	if fanIn <= 0 {
		return fmt.Errorf("fabric: hub %s fan-in %d", id, fanIn)
	}
	if err := f.addNode(&Node{ID: id, Kind: KindHub, FanIn: fanIn, Up: up, Powered: true}); err != nil {
		return err
	}
	return f.wire(up, id)
}

// AddDisk adds a disk leaf attached at up.
func (f *Fabric) AddDisk(id NodeID, up Attachment) error {
	if err := f.addNode(&Node{ID: id, Kind: KindDisk, Up: up, Powered: true}); err != nil {
		return err
	}
	return f.wire(up, id)
}

// AddSwitch adds a 2:1 switch whose upstream sides plug into upA and upB.
// Its downstream slot is (id, 0); initial selection is side 0 (upA).
func (f *Fabric) AddSwitch(id NodeID, upA, upB Attachment) error {
	if err := f.addNode(&Node{ID: id, Kind: KindSwitch, FanIn: 1, Ups: [2]Attachment{upA, upB}, Powered: true}); err != nil {
		return err
	}
	if err := f.wire(upA, id); err != nil {
		return err
	}
	return f.wire(upB, id)
}

func (f *Fabric) addNode(n *Node) error {
	if _, dup := f.nodes[n.ID]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateNode, n.ID)
	}
	f.nodes[n.ID] = n
	return nil
}

func (f *Fabric) wire(at Attachment, child NodeID) error {
	p, ok := f.nodes[at.Parent]
	if !ok {
		return fmt.Errorf("fabric: unknown parent %s for %s", at.Parent, child)
	}
	if at.Slot < 0 || at.Slot >= p.FanIn {
		return fmt.Errorf("fabric: %s slot %d out of range (fan-in %d)", at.Parent, at.Slot, p.FanIn)
	}
	slots := f.down[at.Parent]
	if slots == nil {
		slots = make(map[int]NodeID)
		f.down[at.Parent] = slots
	}
	if prev, busy := slots[at.Slot]; busy {
		return fmt.Errorf("%w: %s slot %d (held by %s)", ErrSlotTaken, at.Parent, at.Slot, prev)
	}
	slots[at.Slot] = child
	return nil
}

// downAt returns the node plugged into parent's slot, resolving a switch
// upstream side to the switch only if the switch currently selects this
// side. ok=false means the slot is electrically open.
func (f *Fabric) downAt(parent NodeID, slot int) (NodeID, bool) {
	child, ok := f.down[parent][slot]
	if !ok {
		return "", false
	}
	n := f.nodes[child]
	if n.Kind == KindSwitch {
		if n.Ups[n.Sel].Parent != parent || n.Ups[n.Sel].Slot != slot {
			return "", false // switch points at its other upstream
		}
	}
	return child, true
}

// upOf returns the currently-connected parent attachment of n (resolving
// switch selection) and whether n is a switch side that is disconnected.
func (f *Fabric) upOf(n *Node) Attachment {
	if n.Kind == KindSwitch {
		return n.Ups[n.Sel]
	}
	return n.Up
}

// PathToRoot walks from disk upward along the current configuration and
// returns the node IDs traversed (disk first, root port last). It returns
// ErrBrokenPath if a traversed component is failed or unpowered (the root
// port's host being down is the caller's concern, not the fabric's).
func (f *Fabric) PathToRoot(disk NodeID) ([]NodeID, error) {
	n, ok := f.nodes[disk]
	if !ok || n.Kind != KindDisk {
		return nil, fmt.Errorf("fabric: unknown disk %s", disk)
	}
	var path []NodeID
	cur := n
	for {
		path = append(path, cur.ID)
		if cur.Failed || !cur.Powered {
			return path, fmt.Errorf("%w: %s is %s", ErrBrokenPath, cur.ID, describeDown(cur))
		}
		if cur.Kind == KindRootPort {
			return path, nil
		}
		up := f.upOf(cur)
		parent, ok := f.nodes[up.Parent]
		if !ok {
			return path, fmt.Errorf("%w: dangling attachment above %s", ErrBrokenPath, cur.ID)
		}
		if len(path) > len(f.nodes) {
			return path, fmt.Errorf("fabric: cycle detected at %s", cur.ID)
		}
		cur = parent
	}
}

func describeDown(n *Node) string {
	if n.Failed {
		return "failed"
	}
	return "unpowered"
}

// AttachedHost returns the host whose root port disk currently reaches, or
// an error if the path is broken.
func (f *Fabric) AttachedHost(disk NodeID) (string, error) {
	path, err := f.PathToRoot(disk)
	if err != nil {
		return "", err
	}
	return f.nodes[path[len(path)-1]].Host, nil
}

// SwitchSetting is a required (switch, selection) pair on a routing path.
type SwitchSetting struct {
	Switch NodeID
	Sel    int
}

// RouteTo computes the unique switch settings required to connect disk to
// host, regardless of current switch state (GETSWITCH in Algorithm 1). The
// settings are returned leaf-to-root. Failed/unpowered components on the
// route make it invalid.
func (f *Fabric) RouteTo(disk NodeID, host string) ([]SwitchSetting, error) {
	n, ok := f.nodes[disk]
	if !ok || n.Kind != KindDisk {
		return nil, fmt.Errorf("fabric: unknown disk %s", disk)
	}
	var settings []SwitchSetting
	cur := n
	for steps := 0; steps <= len(f.nodes); steps++ {
		if cur.Failed || !cur.Powered {
			return nil, fmt.Errorf("%w: via %s (%s)", ErrNoPath, cur.ID, describeDown(cur))
		}
		switch cur.Kind {
		case KindRootPort:
			if cur.Host == host {
				return settings, nil
			}
			return nil, fmt.Errorf("%w: %s reaches %s, not %s", ErrNoPath, disk, cur.Host, host)
		case KindSwitch:
			// Try each upstream side; exactly one can lead to host in a
			// tree-of-choices fabric.
			for side := 0; side < 2; side++ {
				up := cur.Ups[side]
				if f.leadsToHost(up.Parent, host, len(f.nodes)) {
					settings = append(settings, SwitchSetting{Switch: cur.ID, Sel: side})
					cur = f.nodes[up.Parent]
					goto next
				}
			}
			return nil, fmt.Errorf("%w: %s has no side toward %s", ErrNoPath, cur.ID, host)
		default:
			parent, ok := f.nodes[cur.Up.Parent]
			if !ok {
				return nil, fmt.Errorf("%w: dangling above %s", ErrNoPath, cur.ID)
			}
			cur = parent
		}
	next:
	}
	return nil, fmt.Errorf("fabric: cycle detected routing %s to %s", disk, host)
}

// leadsToHost reports whether following upward choices from node can reach
// host's root port through healthy components.
func (f *Fabric) leadsToHost(id NodeID, host string, budget int) bool {
	if budget < 0 {
		return false
	}
	n, ok := f.nodes[id]
	if !ok || n.Failed || !n.Powered {
		return false
	}
	switch n.Kind {
	case KindRootPort:
		return n.Host == host
	case KindSwitch:
		return f.leadsToHost(n.Ups[0].Parent, host, budget-1) ||
			f.leadsToHost(n.Ups[1].Parent, host, budget-1)
	default:
		return f.leadsToHost(n.Up.Parent, host, budget-1)
	}
}

// DataPath returns the fabric resources a data flow from disk consumes:
// the hub uplinks on its current path and the owning host. It builds the
// usb.FlowSim resource path for throughput experiments.
func (f *Fabric) DataPath(disk NodeID) (hubs []NodeID, host string, err error) {
	path, err := f.PathToRoot(disk)
	if err != nil {
		return nil, "", err
	}
	for _, id := range path {
		n := f.nodes[id]
		switch n.Kind {
		case KindHub:
			hubs = append(hubs, id)
		case KindRootPort:
			host = n.Host
		}
	}
	return hubs, host, nil
}

// SetSwitch turns sw to sel, firing the turn observer. It is the low-level
// actuation used by the microcontroller; Controllers should go through
// Plan/Apply (Algorithm 1) instead.
func (f *Fabric) SetSwitch(sw NodeID, sel int) error {
	n, ok := f.nodes[sw]
	if !ok || n.Kind != KindSwitch {
		return fmt.Errorf("fabric: unknown switch %s", sw)
	}
	if sel != 0 && sel != 1 {
		return fmt.Errorf("fabric: switch %s selection %d", sw, sel)
	}
	if n.Failed {
		return fmt.Errorf("fabric: switch %s failed", sw)
	}
	if n.Sel == sel {
		return nil
	}
	old := n.Sel
	n.Sel = sel
	if f.onSwitchTurn != nil {
		f.onSwitchTurn(sw, old, sel)
	}
	return nil
}

// Fail marks a node failed (fault injection). Per §IV-E a switch or bridge
// shares a failure unit with its adjacent hub or disk; callers model that by
// failing the hub/disk node itself.
func (f *Fabric) Fail(id NodeID) error {
	n, ok := f.nodes[id]
	if !ok {
		return fmt.Errorf("fabric: unknown node %s", id)
	}
	n.Failed = true
	return nil
}

// Repair clears a node's failed flag (component replaced by the operator).
func (f *Fabric) Repair(id NodeID) error {
	n, ok := f.nodes[id]
	if !ok {
		return fmt.Errorf("fabric: unknown node %s", id)
	}
	n.Failed = false
	return nil
}

// SetPower opens or closes the node's supply relay (disks and hubs).
func (f *Fabric) SetPower(id NodeID, on bool) error {
	n, ok := f.nodes[id]
	if !ok {
		return fmt.Errorf("fabric: unknown node %s", id)
	}
	if n.Kind != KindDisk && n.Kind != KindHub {
		return fmt.Errorf("fabric: %s has no power relay", id)
	}
	n.Powered = on
	return nil
}

// VisibleChild is one edge of a host's visible USB tree.
type VisibleChild struct {
	Parent NodeID // hub or root port
	Slot   int
	Child  NodeID // hub or disk (switches/bridges are transparent)
}

// VisibleTree returns host's visible USB tree edges in deterministic
// (BFS, slot-sorted) order: what the host's controller would enumerate with
// the current switch assignment, skipping transparent switches and pruning
// failed or unpowered subtrees.
func (f *Fabric) VisibleTree(host string) []VisibleChild {
	rootID := NodeID("root:" + host)
	if _, ok := f.nodes[rootID]; !ok {
		return nil
	}
	var out []VisibleChild
	queue := []NodeID{rootID}
	for len(queue) > 0 {
		parent := queue[0]
		queue = queue[1:]
		pn := f.nodes[parent]
		for slot := 0; slot < pn.FanIn; slot++ {
			child, ok := f.resolveVisible(parent, slot)
			if !ok {
				continue
			}
			cn := f.nodes[child]
			if cn.Failed || !cn.Powered {
				continue
			}
			out = append(out, VisibleChild{Parent: parent, Slot: slot, Child: child})
			if cn.Kind == KindHub {
				queue = append(queue, child)
			}
		}
	}
	return out
}

// resolveVisible resolves parent's slot through any chain of switches to the
// first hub or disk, honoring current selections.
func (f *Fabric) resolveVisible(parent NodeID, slot int) (NodeID, bool) {
	cur, ok := f.downAt(parent, slot)
	if !ok {
		return "", false
	}
	for budget := len(f.nodes); budget >= 0; budget-- {
		n := f.nodes[cur]
		if n.Kind != KindSwitch {
			return cur, true
		}
		if n.Failed || !n.Powered {
			return "", false
		}
		next, ok := f.downAt(cur, 0)
		if !ok {
			return "", false
		}
		cur = next
	}
	return "", false
}

// BOM counts the fabric's bill of materials for the cost model.
type BOM struct {
	Hubs     int
	Switches int
	Bridges  int // one per disk
	Disks    int
	Hosts    int
}

// BOM returns component counts.
func (f *Fabric) BOM() BOM {
	var b BOM
	for _, n := range f.nodes {
		switch n.Kind {
		case KindHub:
			b.Hubs++
		case KindSwitch:
			b.Switches++
		case KindDisk:
			b.Disks++
			b.Bridges++
		case KindRootPort:
			b.Hosts++
		}
	}
	return b
}
