package fabric

import (
	"sort"
	"time"

	"ustore/internal/usb"
)

// Binding projects the fabric's electrical state into per-host USB device
// trees (package usb), so that switch turns, component failures, and power
// cuts produce the hot-plug and enumeration behaviour a real host observes:
// immediate detach events, then serialized re-enumeration on the receiving
// host after the detect delay.
type Binding struct {
	fabric *Fabric
	hcs    map[string]*usb.HostController
	// devices maps fabric hub/disk nodes to their usb device objects.
	devices map[NodeID]*usb.Device
	// edges tracks the currently-applied visible edge for each device.
	edges map[NodeID]VisibleChild

	// OnStorageEnumerated fires when a disk becomes usable on a host.
	OnStorageEnumerated func(host string, diskID NodeID)
	// OnStorageDetached fires when a disk disappears from a host.
	OnStorageDetached func(host string, diskID NodeID)
}

// NewBinding creates host controllers for every fabric host and attaches
// the initial visible trees. Run the scheduler to complete the initial
// enumeration. limit caps the devices per host controller (hubs included):
// usb.MaxDevicesPerTree is the full USB addressing limit, and with
// usb.IntelRootHubDeviceLimit the binding reproduces the prototype's
// observed behaviour (§V-B): devices beyond the limit silently fail to
// enumerate until the tree shrinks.
func NewBinding(f *Fabric, limit int, clock func() time.Duration, schedule func(time.Duration, func())) *Binding {
	b := &Binding{
		fabric:  f,
		hcs:     make(map[string]*usb.HostController),
		devices: make(map[NodeID]*usb.Device),
		edges:   make(map[NodeID]VisibleChild),
	}
	for _, h := range f.Hosts() {
		host := h
		hc := usb.NewHostController(host, 1, limit, clock, schedule)
		hc.OnEnumerated = func(dev *usb.Device) {
			if dev.Class == usb.ClassStorage && b.OnStorageEnumerated != nil {
				b.OnStorageEnumerated(host, NodeID(dev.ID))
			}
		}
		hc.OnDetached = func(dev *usb.Device) {
			if dev.Class == usb.ClassStorage && b.OnStorageDetached != nil {
				b.OnStorageDetached(host, NodeID(dev.ID))
			}
		}
		b.hcs[host] = hc
	}
	for _, id := range f.Hubs() {
		b.devices[id] = usb.NewHub(string(id), f.Node(id).FanIn)
	}
	for _, id := range f.Disks() {
		b.devices[id] = usb.NewStorage(string(id))
	}
	f.OnSwitchTurn(func(sw NodeID, oldSel, newSel int) { b.Resync() })
	b.Resync()
	return b
}

// HostController returns host's USB controller (what its EndPoint monitors).
func (b *Binding) HostController(host string) *usb.HostController { return b.hcs[host] }

// Device returns the usb device object for a fabric node.
func (b *Binding) Device(id NodeID) *usb.Device { return b.devices[id] }

// HostOf returns the host whose tree currently contains the device, or "".
func (b *Binding) HostOf(id NodeID) string {
	e, ok := b.edges[id]
	if !ok {
		return ""
	}
	for {
		pn := b.fabric.Node(e.Parent)
		if pn.Kind == KindRootPort {
			return pn.Host
		}
		pe, ok := b.edges[e.Parent]
		if !ok {
			return ""
		}
		e = pe
	}
}

// Resync diffs the fabric's visible trees against the applied USB state and
// performs the minimal detaches and attaches. Call it after any fabric
// mutation that is not a switch turn (failures, power cuts, repairs);
// switch turns trigger it automatically.
func (b *Binding) Resync() {
	desired := make(map[NodeID]VisibleChild)
	for _, h := range b.fabric.Hosts() {
		for _, e := range b.fabric.VisibleTree(h) {
			desired[e.Child] = e
		}
	}

	// Detach devices whose edge changed or disappeared. Children of a
	// moved subtree keep their relative edges, so detaching the subtree
	// root is enough — detach top-down and skip descendants of already-
	// detached nodes (their usb objects travel with the parent).
	var toDetach []NodeID
	for id, cur := range b.edges {
		want, ok := desired[id]
		if !ok || want != cur {
			toDetach = append(toDetach, id)
		}
	}
	sort.Slice(toDetach, func(i, j int) bool { return toDetach[i] < toDetach[j] })
	detached := make(map[NodeID]bool)
	for _, id := range toDetach {
		if b.ancestorDetaching(id, desired) {
			// The subtree root handles it; just update bookkeeping.
			if want, ok := desired[id]; ok {
				b.edges[id] = want
			} else {
				delete(b.edges, id)
			}
			continue
		}
		host := b.HostOf(id)
		if host != "" {
			if hc := b.hcs[host]; hc != nil {
				_ = hc.Detach(b.devices[id])
			}
		}
		detached[id] = true
		delete(b.edges, id)
	}

	// Attach new/updated edges, parents before children.
	var toAttach []NodeID
	for id, want := range desired {
		if cur, ok := b.edges[id]; !ok || cur != want {
			toAttach = append(toAttach, id)
		}
	}
	sort.Slice(toAttach, func(i, j int) bool {
		di, dj := b.visibleDepth(desired, toAttach[i]), b.visibleDepth(desired, toAttach[j])
		if di != dj {
			return di < dj
		}
		return toAttach[i] < toAttach[j] // deterministic tiebreak (toAttach comes from a map)
	})
	for _, id := range toAttach {
		want := desired[id]
		// If this node's usb device is still physically inside a parent
		// device that was itself re-attached (subtree move), it needs no
		// separate attach — just record the edge.
		if b.insideAttachedParent(id, want) {
			b.edges[id] = want
			continue
		}
		host := b.hostOfDesired(desired, id)
		hc := b.hcs[host]
		if hc == nil {
			continue
		}
		parentDev := b.parentDevice(want, hc)
		if parentDev == nil {
			continue
		}
		if err := hc.Attach(parentDev, want.Slot+1, b.devices[id]); err != nil {
			// Device-limit or port conflicts surface to the operator via
			// the USB monitor (the disk simply never enumerates).
			continue
		}
		b.edges[id] = want
	}
}

// ancestorDetaching reports whether some visible ancestor of id is also
// having its edge changed (so the subtree moves as a unit).
func (b *Binding) ancestorDetaching(id NodeID, desired map[NodeID]VisibleChild) bool {
	cur, ok := b.edges[id]
	if !ok {
		return false
	}
	parent := cur.Parent
	for {
		pe, ok := b.edges[parent]
		if !ok {
			return false // parent is a root port (or unattached)
		}
		want, ok := desired[parent]
		if !ok || want != pe {
			return true
		}
		parent = pe.Parent
	}
}

// insideAttachedParent reports whether id's usb device already sits at the
// right port inside its (possibly just-moved) parent device.
func (b *Binding) insideAttachedParent(id NodeID, want VisibleChild) bool {
	pn := b.fabric.Node(want.Parent)
	if pn.Kind == KindRootPort {
		return false
	}
	parentDev := b.devices[want.Parent]
	if parentDev == nil {
		return false
	}
	return parentDev.Children[want.Slot+1] == b.devices[id]
}

func (b *Binding) visibleDepth(desired map[NodeID]VisibleChild, id NodeID) int {
	d := 0
	for {
		e, ok := desired[id]
		if !ok {
			return d
		}
		id = e.Parent
		d++
		if d > len(desired)+1 {
			return d
		}
	}
}

func (b *Binding) hostOfDesired(desired map[NodeID]VisibleChild, id NodeID) string {
	for {
		e, ok := desired[id]
		if !ok {
			return ""
		}
		pn := b.fabric.Node(e.Parent)
		if pn.Kind == KindRootPort {
			return pn.Host
		}
		id = e.Parent
	}
}

func (b *Binding) parentDevice(want VisibleChild, hc *usb.HostController) *usb.Device {
	if b.fabric.Node(want.Parent).Kind == KindRootPort {
		return hc.Root()
	}
	return b.devices[want.Parent]
}
