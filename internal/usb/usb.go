// Package usb models the USB 3.0 bus behaviour UStore's interconnect fabric
// is built from: tiered device trees per root port, enumeration timing on
// hot-plug, per-controller device limits, and the bandwidth behaviour of
// SuperSpeed links.
//
// Two aspects matter for reproducing the paper:
//
//   - Topology/enumeration: when the fabric switches a disk between hosts the
//     receiving host's USB driver must enumerate it. Enumeration is serialized
//     per host controller, which is why Figure 6's "recognized" delay grows
//     with the number of disks switched at once. The Intel root-hub driver
//     quirk (fewer than 15 devices per controller, §V-B) is modelled too.
//
//   - Bandwidth: SuperSpeed is 5 Gb/s full duplex per link; after 8b/10b and
//     protocol overhead a single port sustains 300–400 MB/s per direction.
//     Package usb provides a max-min fair fluid-flow model (flow.go) over the
//     tree links, which Figure 5's multi-disk saturation curves emerge from.
package usb

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ustore/internal/obs"
)

// Bus-level constants from the USB 3.0 specification and the paper's
// measurements (§II-B, §V-B, §VII-A).
const (
	// MaxTiers is the maximum depth of a USB tree (root counts as tier 1).
	MaxTiers = 5
	// MaxDevicesPerTree is the USB addressing limit per tree, hubs included.
	MaxDevicesPerTree = 127
	// IntelRootHubDeviceLimit reproduces the Intel xHCI driver quirk the
	// prototype hit: fewer than 15 devices are recognized per controller.
	IntelRootHubDeviceLimit = 14

	// LinkBytesPerSec is the usable per-direction throughput of one
	// SuperSpeed link after encoding and protocol overhead (~400 MB/s).
	LinkBytesPerSec = 400e6
	// RootPortBytesPerSec is the usable per-direction throughput at a host
	// controller port; the paper measured ~300 MB/s.
	RootPortBytesPerSec = 300e6
	// RootPortDuplexBytesPerSec caps the two directions' sum: full duplex
	// is not perfectly independent (ACK and flow-control traffic crosses
	// directions), so a saturated port sums to ~540 MB/s, not 600
	// (§VII-A's measured duplex total).
	RootPortDuplexBytesPerSec = 540e6
	// RootPortCmdsPerSec is the host controller's aggregate small-command
	// dispatch rate. Eight disks at ~5.4k sequential 4KB IO/s saturate the
	// tree in the paper's Figure 5, giving ~43.5k cmds/s.
	RootPortCmdsPerSec = 43500

	// HighSpeedBytesPerSec is the usable throughput of a link that lost
	// SuperSpeed training and renegotiated down to USB 2.0 HighSpeed
	// (480 Mb/s wire, ~35 MB/s after protocol overhead) — the gray-failure
	// mode cheap cables and marginal hub silicon exhibit in deployment.
	HighSpeedBytesPerSec = 35e6
)

// LinkSpeed is the negotiated signalling rate of a device's upstream link.
type LinkSpeed int

const (
	// LinkSuper is a healthy USB 3.0 SuperSpeed link (the default).
	LinkSuper LinkSpeed = iota
	// LinkHigh is a link that fell back to USB 2.0 HighSpeed after failed
	// SuperSpeed training.
	LinkHigh
)

// String returns the speed name as the kernel's usb core logs it.
func (s LinkSpeed) String() string {
	if s == LinkHigh {
		return "high-speed"
	}
	return "super-speed"
}

// Enumeration timing. Hot-plugged devices are detected after a debounce and
// then enumerated serially per controller.
const (
	// EnumDetectDelay is link training + debounce before enumeration begins.
	EnumDetectDelay = 600 * time.Millisecond
	// EnumPerDevice is the serial per-device enumeration cost (descriptor
	// fetches, address assignment, driver bind).
	EnumPerDevice = 350 * time.Millisecond
)

// DeviceClass distinguishes hubs from leaf devices (disk bridges).
type DeviceClass int

const (
	// ClassHub is an internal tree node with downstream ports.
	ClassHub DeviceClass = iota
	// ClassStorage is a SATA-to-USB bridge with a disk behind it.
	ClassStorage
)

// String returns the class name as lsusb would show it.
func (c DeviceClass) String() string {
	if c == ClassHub {
		return "hub"
	}
	return "storage"
}

// Device is a node in a host's USB tree.
type Device struct {
	ID    string
	Class DeviceClass
	// Ports is the number of downstream ports (hubs only).
	Ports int
	// Children maps downstream port number -> attached device.
	Children map[int]*Device
	// Enumerated is false between physical attach and driver enumeration.
	Enumerated bool
	// Speed is the negotiated upstream link speed (LinkSuper unless a
	// downgrade fault renegotiated it).
	Speed  LinkSpeed
	parent *Device
	port   int
}

// NewHub returns an unattached hub device with the given fan-in.
func NewHub(id string, ports int) *Device {
	return &Device{ID: id, Class: ClassHub, Ports: ports, Children: make(map[int]*Device)}
}

// NewStorage returns an unattached storage (bridge+disk) device.
func NewStorage(id string) *Device {
	return &Device{ID: id, Class: ClassStorage, Children: make(map[int]*Device)}
}

// Tier returns the device's tier (root hub = 1).
func (d *Device) Tier() int {
	t := 1
	for p := d.parent; p != nil; p = p.parent {
		t++
	}
	return t
}

// Walk visits d and every descendant in deterministic (port-sorted) order.
func (d *Device) Walk(fn func(*Device)) {
	fn(d)
	ports := make([]int, 0, len(d.Children))
	for p := range d.Children {
		ports = append(ports, p)
	}
	sort.Ints(ports)
	for _, p := range ports {
		d.Children[p].Walk(fn)
	}
}

// Errors returned by tree mutations.
var (
	// ErrPortOccupied is returned when attaching to a port already in use.
	ErrPortOccupied = errors.New("usb: port occupied")
	// ErrNoSuchPort is returned for a port outside the hub's range.
	ErrNoSuchPort = errors.New("usb: no such port")
	// ErrTooDeep is returned when an attach would exceed MaxTiers.
	ErrTooDeep = errors.New("usb: tree exceeds 5 tiers")
	// ErrTreeFull is returned when an attach would exceed the device limit.
	ErrTreeFull = errors.New("usb: tree device limit exceeded")
	// ErrNotAttached is returned when detaching a device with no parent.
	ErrNotAttached = errors.New("usb: device not attached")
)

// HostController is one host's USB 3.0 root controller: a root hub, a device
// limit, and a serialized enumeration queue.
type HostController struct {
	host  string
	root  *Device
	limit int

	clock        func() time.Duration
	schedule     func(d time.Duration, fn func())
	enumBusyTill time.Duration

	// OnEnumerated fires when a device completes enumeration on this host.
	OnEnumerated func(dev *Device)
	// OnDetached fires when a device is surprise-removed from this host.
	OnDetached func(dev *Device)

	// Observability handles (nil-safe; SetRecorder fills them in).
	rec        *obs.Recorder
	mEnum      *obs.Histogram
	cAttach    *obs.Counter
	cDetach    *obs.Counter
	cEnum      *obs.Counter
	cFlap      *obs.Counter
	cDowngrade *obs.Counter
}

// SetRecorder points the controller's instrumentation at a run Recorder.
// Hot-plug attach/detach become trace instants, each device's wait from
// physical attach to driver enumeration lands in the
// usb_enumeration_seconds histogram, and the serialized enumeration of
// each device is a span on the host's track.
func (hc *HostController) SetRecorder(rec *obs.Recorder) {
	hc.rec = rec
	hc.mEnum = rec.Histogram("usb", "enumeration_seconds")
	hc.cAttach = rec.Counter("usb", "hotplug_attach_total")
	hc.cDetach = rec.Counter("usb", "hotplug_detach_total")
	hc.cEnum = rec.Counter("usb", "enumerations_total")
	hc.cFlap = rec.Counter("usb", "link_flaps_total")
	hc.cDowngrade = rec.Counter("usb", "link_downgrades_total")
}

// NewHostController creates a controller for host with the given root port
// count. clock and schedule plug it into the simulation scheduler without a
// package dependency cycle.
func NewHostController(host string, rootPorts int, limit int, clock func() time.Duration, schedule func(time.Duration, func())) *HostController {
	if limit <= 0 {
		limit = IntelRootHubDeviceLimit
	}
	return &HostController{
		host:     host,
		root:     NewHub("root:"+host, rootPorts),
		limit:    limit,
		clock:    clock,
		schedule: schedule,
	}
}

// Root returns the root hub device.
func (hc *HostController) Root() *Device { return hc.root }

// DeviceCount returns the number of attached devices (excluding the root
// hub), whether enumerated yet or not.
func (hc *HostController) DeviceCount() int {
	n := 0
	hc.root.Walk(func(d *Device) { n++ })
	return n - 1
}

// Attach plugs dev (and any subtree below it) into the given port of parent.
// Enumeration of the subtree is scheduled: devices become visible after the
// detect delay plus their position in the controller's serial enumeration
// queue. Attach fails if the controller device limit, tier limit, or port
// constraints are violated — reproducing the prototype's ">15 devices not
// recognized" behaviour as a hard error the caller can observe.
func (hc *HostController) Attach(parent *Device, port int, dev *Device) error {
	if parent.Class != ClassHub {
		return fmt.Errorf("usb: attach to non-hub %s", parent.ID)
	}
	if port < 1 || port > parent.Ports {
		return fmt.Errorf("%w: %s port %d of %d", ErrNoSuchPort, parent.ID, port, parent.Ports)
	}
	if _, busy := parent.Children[port]; busy {
		return fmt.Errorf("%w: %s port %d", ErrPortOccupied, parent.ID, port)
	}
	subtree := 0
	maxDepth := 0
	dev.Walk(func(d *Device) {
		subtree++
		depth := 0
		for p := d; p != dev; p = p.parent {
			depth++
		}
		if depth > maxDepth {
			maxDepth = depth
		}
	})
	if hc.DeviceCount()+subtree > hc.limit {
		return fmt.Errorf("%w: host %s limit %d", ErrTreeFull, hc.host, hc.limit)
	}
	if hc.DeviceCount()+subtree > MaxDevicesPerTree {
		return fmt.Errorf("%w: USB addressing limit %d", ErrTreeFull, MaxDevicesPerTree)
	}
	if parent.Tier()+1+maxDepth > MaxTiers {
		return fmt.Errorf("%w: would reach tier %d", ErrTooDeep, parent.Tier()+1+maxDepth)
	}
	parent.Children[port] = dev
	dev.parent = parent
	dev.port = port
	attachedAt := hc.clock()
	cause := hc.rec.Instant("usb", "hotplug-attach", hc.host,
		obs.L("device", dev.ID), obs.L("class", dev.Class.String()))
	hc.cAttach.Inc()
	// Schedule serialized enumeration of the subtree, breadth-first-ish via
	// Walk order (parents before children, as real enumeration requires).
	ready := attachedAt + EnumDetectDelay
	if hc.enumBusyTill > ready {
		ready = hc.enumBusyTill
	}
	dev.Walk(func(d *Device) {
		// The span covers this device's serial slot in the enumeration
		// queue; the histogram covers the full attach-to-visible wait.
		span := hc.rec.Begin("usb", "enumerate", hc.host, obs.L("device", d.ID))
		ready += EnumPerDevice
		at := ready
		hc.schedule(at-hc.clock(), func() {
			// The device may have been detached before enumeration
			// completed (rapid re-switching).
			if !hc.contains(d) {
				span.End(obs.L("aborted", "detached"))
				return
			}
			d.Enumerated = true
			span.End()
			hc.mEnum.ObserveDuration(hc.clock() - attachedAt)
			hc.cEnum.Inc()
			hc.rec.InstantCause("usb", "enumerated", hc.host, cause, obs.L("device", d.ID))
			if hc.OnEnumerated != nil {
				hc.OnEnumerated(d)
			}
		})
	})
	hc.enumBusyTill = ready
	return nil
}

// Detach surprise-removes dev (and its subtree) from this controller. The
// OnDetached callback fires immediately for every removed device, matching
// the immediate udev remove events a Linux host sees.
func (hc *HostController) Detach(dev *Device) error {
	if dev.parent == nil {
		return fmt.Errorf("%w: %s", ErrNotAttached, dev.ID)
	}
	delete(dev.parent.Children, dev.port)
	dev.parent = nil
	dev.port = 0
	dev.Walk(func(d *Device) {
		d.Enumerated = false
		hc.cDetach.Inc()
		hc.rec.Instant("usb", "hotplug-detach", hc.host, obs.L("device", d.ID))
		if hc.OnDetached != nil {
			hc.OnDetached(d)
		}
	})
	return nil
}

// SetLinkSpeed renegotiates dev's upstream link: a downgrade to LinkHigh
// models the USB3→USB2 fallback marginal cables exhibit, a later LinkSuper
// call models the link retraining cleanly. The device stays enumerated — the
// kernel keeps the device node across a speed change — but everything behind
// the link now moves at the new rate (callers propagate that to the disk's
// transport cap).
func (hc *HostController) SetLinkSpeed(dev *Device, s LinkSpeed) {
	if dev.Speed == s {
		return
	}
	dev.Speed = s
	if s == LinkHigh {
		hc.cDowngrade.Inc()
	}
	hc.rec.Instant("usb", "link-speed", hc.host,
		obs.L("device", dev.ID), obs.L("speed", s.String()))
}

// FlapDevice surprise-removes dev and schedules its re-attach to the same
// port after linkDownFor. The re-attach pays the normal detect + serialized
// enumeration cost, inflated by retryStorms failed enumeration attempts
// (each burning one EnumPerDevice slot of the controller's serial queue) —
// the retry-storm pattern flaky links produce in dmesg. If something else
// claimed the port while the link was down, the re-attach is abandoned and
// the device stays detached (exactly what a real fabric reconfiguration
// racing a flap would do).
func (hc *HostController) FlapDevice(dev *Device, linkDownFor time.Duration, retryStorms int) error {
	parent, port := dev.parent, dev.port
	if parent == nil {
		return fmt.Errorf("%w: %s", ErrNotAttached, dev.ID)
	}
	if err := hc.Detach(dev); err != nil {
		return err
	}
	hc.cFlap.Inc()
	hc.rec.Instant("usb", "link-flap", hc.host,
		obs.L("device", dev.ID), obs.L("storms", fmt.Sprint(retryStorms)))
	hc.schedule(linkDownFor, func() {
		if _, busy := parent.Children[port]; busy {
			return
		}
		if !hc.contains(parent) && parent != hc.root {
			return // parent hub itself was removed while the link was down
		}
		if retryStorms > 0 {
			busyTill := hc.clock() + time.Duration(retryStorms)*EnumPerDevice
			if busyTill > hc.enumBusyTill {
				hc.enumBusyTill = busyTill
			}
		}
		_ = hc.Attach(parent, port, dev)
	})
	return nil
}

func (hc *HostController) contains(dev *Device) bool {
	found := false
	hc.root.Walk(func(d *Device) {
		if d == dev {
			found = true
		}
	})
	return found
}

// TreeEntry is one line of an lsusb-style tree snapshot.
type TreeEntry struct {
	ID         string
	Class      DeviceClass
	Tier       int
	Port       int
	ParentID   string
	Enumerated bool
}

// Tree returns a deterministic snapshot of the controller's device tree —
// the "lsusb -t" view the EndPoint's USB Monitor reports to the Controller.
// Only enumerated devices appear (the OS cannot report what it has not
// enumerated). The root hub itself is omitted.
func (hc *HostController) Tree() []TreeEntry {
	var out []TreeEntry
	hc.root.Walk(func(d *Device) {
		if d == hc.root || !d.Enumerated {
			return
		}
		parentID := ""
		if d.parent != nil {
			parentID = d.parent.ID
		}
		out = append(out, TreeEntry{
			ID: d.ID, Class: d.Class, Tier: d.Tier(), Port: d.port,
			ParentID: parentID, Enumerated: d.Enumerated,
		})
	})
	return out
}
