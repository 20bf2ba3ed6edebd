package core

import (
	"fmt"
	"time"

	"ustore/internal/coord"
	"ustore/internal/disk"
	"ustore/internal/fabric"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
	"ustore/internal/usb"
)

// Cluster assembles a complete UStore deployment on one simulation
// scheduler: the deploy unit (fabric + disks + control plane + USB
// binding), the replicated Master (with its co-located coord quorum), two
// Controllers, one EndPoint per host, and factories for ClientLibs. It is
// the entry point tests, benches, and examples build on.
type Cluster struct {
	Cfg   Config
	Sched *simtime.Scheduler
	Net   *simnet.Network
	// UnitRig is the deploy unit: Fabric, Binding, Plane and Ctrls are its
	// fields.
	*UnitRig
	Disks     map[string]*disk.Disk
	Stores    []*coord.Store
	Masters   []*Master
	EndPoints map[string]*EndPoint

	clients map[string]*ClientLib
}

// NewCluster builds and boots a cluster per cfg. Run the scheduler (e.g.
// Settle) to complete initial enumeration, elections, and exports.
func NewCluster(cfg Config) (*Cluster, error) {
	sched := simtime.NewScheduler(cfg.Seed)
	net := simnet.New(sched)
	if cfg.Recorder != nil {
		// All trace timestamps come from this run's virtual clock.
		cfg.Recorder.BindClock(sched.Now)
		net.SetRecorder(cfg.Recorder)
	}
	// History stamps (nil-safe) also read this run's virtual clock.
	cfg.History.BindClock(sched.Now)
	c := &Cluster{
		Cfg:       cfg,
		Sched:     sched,
		Net:       net,
		Disks:     make(map[string]*disk.Disk),
		EndPoints: make(map[string]*EndPoint),
		clients:   make(map[string]*ClientLib),
	}

	// Master replica names, needed before the unit wires its EndPoints.
	var peerNames []string
	for i := 0; i < masterReplicas; i++ {
		peerNames = append(peerNames, fmt.Sprintf("m%d", i))
	}
	var masterNodes []string
	for _, name := range peerNames {
		masterNodes = append(masterNodes, masterNode(name))
	}

	var err error
	if c.UnitRig, err = buildUnit(c, masterNodes); err != nil {
		return nil, err
	}

	// Master replicas with co-located coord stores, taught the unit's
	// hosts, controllers and co-moving disk groups (SysConf).
	hosts := c.Fabric.Hosts()
	ctrls := []string{controllerNode(hosts[0]), controllerNode(hosts[1])}
	groups := c.Fabric.CoMovingGroups()
	for _, name := range peerNames {
		st := coord.NewStore(net, name, peerNames, cfg.PaxosOrDefault())
		if cfg.CoordSweepInterval > 0 {
			st.SetSweepInterval(cfg.CoordSweepInterval)
		}
		c.Stores = append(c.Stores, st)
		m := NewMaster(net, name, st, cfg, ctrls)
		m.SetDiskGroups(groups)
		c.Masters = append(c.Masters, m)
		net.Colocate(name, "mach-"+name)             // paxos node
		net.Colocate("coord:"+name, "mach-"+name)    // coord store
		net.Colocate(masterNode(name), "mach-"+name) // master process
	}
	// Initial enumeration events are still pending on the scheduler (they
	// fire after the USB detect + per-device delays), so installing the
	// hot-plug callbacks inside buildUnit loses nothing: the first Settle
	// delivers them all.
	return c, nil
}

// Settle runs the simulation for d.
func (c *Cluster) Settle(d time.Duration) {
	c.Sched.RunFor(d)
	c.publishSchedStats()
}

// publishSchedStats mirrors the scheduler's activity counters into the run
// recorder as gauges, keeping internal/simtime free of any obs dependency.
// Called after each Settle so the exported snapshot tracks the run.
func (c *Cluster) publishSchedStats() {
	rec := c.Cfg.Recorder
	if rec == nil {
		return
	}
	st := c.Sched.Stats()
	rec.Gauge("simtime", "events_fired").Set(float64(st.Fired))
	rec.Gauge("simtime", "events_allocated").Set(float64(st.Allocated))
	rec.Gauge("simtime", "events_recycled").Set(float64(st.Recycled))
	rec.Gauge("simtime", "events_reused").Set(float64(st.Reused))
	rec.Gauge("simtime", "inserts_ready").Set(float64(st.ReadyInserts))
	rec.Gauge("simtime", "inserts_wheel").Set(float64(st.WheelInserts))
	rec.Gauge("simtime", "inserts_far").Set(float64(st.FarInserts))
	rec.Gauge("simtime", "canceled_dropped").Set(float64(st.CanceledDropped))
	rec.Gauge("simtime", "compactions").Set(float64(st.Compactions))
	rec.Gauge("simtime", "max_pending").Set(float64(st.MaxPending))
}

// ActiveMaster returns the current active master replica (nil if the
// election has not converged).
func (c *Cluster) ActiveMaster() *Master {
	for _, m := range c.Masters {
		if m.Active() {
			return m
		}
	}
	return nil
}

// MasterNodeNames lists the master RPC node names.
func (c *Cluster) MasterNodeNames() []string {
	var out []string
	for _, m := range c.Masters {
		out = append(out, masterNode(m.Name()))
	}
	return out
}

// Client returns (creating on first use) a ClientLib named name for the
// given service.
func (c *Cluster) Client(name, service string) *ClientLib {
	key := name + "/" + service
	if cl, ok := c.clients[key]; ok {
		return cl
	}
	cl := NewClientLib(c.Net, name, service, c.Cfg, c.MasterNodeNames())
	// A client named after a host (e.g. co-located agents, HDFS
	// datanodes) runs on that machine: its traffic to the local target is
	// loopback.
	if host := cl.locality(); host != "" {
		c.Net.Colocate(name, host)
		c.Net.Colocate("cl:"+name, host)
	}
	c.clients[key] = cl
	return cl
}

// CrashHost simulates a host's software/hardware failure: its EndPoint,
// block target, and (if it runs one) Controller stop responding. Its USB
// devices remain powered — they are in the deploy unit, not the host — so
// the fabric can re-home them.
func (c *Cluster) CrashHost(host string) {
	if ep := c.EndPoints[host]; ep != nil {
		ep.Down(true)
	}
	for _, ctl := range c.Ctrls {
		if ctl.Host() == host {
			ctl.Down(true)
		}
	}
}

// RestoreHost brings a crashed host back.
func (c *Cluster) RestoreHost(host string) {
	if ep := c.EndPoints[host]; ep != nil {
		ep.Down(false)
	}
	for _, ctl := range c.Ctrls {
		if ctl.Host() == host {
			ctl.Down(false)
		}
	}
}

// FailDisk simulates a whole-disk hardware failure: the fabric marks the
// disk node failed (its bridge shares the failure unit, §IV-E), the binding
// drops it from its host's USB tree, and the device itself goes dark so
// in-flight IO errors out.
func (c *Cluster) FailDisk(id string) error {
	if c.Fabric.Node(fabric.NodeID(id)) == nil {
		return fmt.Errorf("core: unknown disk %s", id)
	}
	if err := c.Fabric.Fail(fabric.NodeID(id)); err != nil {
		return err
	}
	if d := c.Disks[id]; d != nil {
		d.PowerOff()
	}
	c.Binding.Resync()
	return nil
}

// ReplaceDisk models the operator swapping in a fresh drive at the failed
// disk's slot: blank media (any surviving data lives only on replicas), the
// fabric node repaired, and the device powered back on. The binding resync
// re-enumerates it, and the heartbeat path re-exports spaces onto it.
func (c *Cluster) ReplaceDisk(id string) error {
	if c.Fabric.Node(fabric.NodeID(id)) == nil {
		return fmt.Errorf("core: unknown disk %s", id)
	}
	if err := c.Fabric.Repair(fabric.NodeID(id)); err != nil {
		return err
	}
	if d := c.Disks[id]; d != nil {
		d.ReplaceMedia()
		d.PowerOn()
	}
	c.Binding.Resync()
	return nil
}

// FailHub marks a hub (and hence the subtree hanging off it) failed. Disk
// data under the hub is intact — only the path to it is gone until repair.
func (c *Cluster) FailHub(id string) error {
	if c.Fabric.Node(fabric.NodeID(id)) == nil {
		return fmt.Errorf("core: unknown hub %s", id)
	}
	if err := c.Fabric.Fail(fabric.NodeID(id)); err != nil {
		return err
	}
	c.Binding.Resync()
	return nil
}

// ReplaceHub repairs a failed hub; the subtree re-enumerates with its data
// untouched.
func (c *Cluster) ReplaceHub(id string) error {
	if c.Fabric.Node(fabric.NodeID(id)) == nil {
		return fmt.Errorf("core: unknown hub %s", id)
	}
	if err := c.Fabric.Repair(fabric.NodeID(id)); err != nil {
		return err
	}
	c.Binding.Resync()
	return nil
}

// --- Gray-failure injection (fail-slow, not fail-stop) ---

// DegradeDisk makes a disk fail-slow with the given severity in (0, 1]:
// inflated service time, added latency, a throttled media rate, and (at
// high severity) intermittent EIO. The disk stays attached and keeps
// answering — the failure mode quarantine exists for.
func (c *Cluster) DegradeDisk(id string, severity float64) error {
	d := c.Disks[id]
	if d == nil {
		return fmt.Errorf("core: unknown disk %s", id)
	}
	if severity <= 0 {
		severity = 0.5
	}
	if severity > 1 {
		severity = 1
	}
	p := disk.DegradeParams{
		ServiceFactor: 1 + 9*severity,
		ExtraLatency:  time.Duration(severity * float64(200*time.Millisecond)),
		BandwidthCap:  (1 - 0.8*severity) * diskParams.MediaRate,
	}
	if severity >= 0.7 {
		p.IOErrorRate = 0.02 * severity
	}
	d.Degrade(p)
	return nil
}

// RecoverDisk clears a disk's fail-slow degradation (the media recovered;
// any link-level throttle is separate, see RestoreLink).
func (c *Cluster) RecoverDisk(id string) error {
	d := c.Disks[id]
	if d == nil {
		return fmt.Errorf("core: unknown disk %s", id)
	}
	d.ClearDegrade()
	return nil
}

// FlapLink bounces a disk's USB link: the device detaches, stays dark for a
// link-down window, then re-enumerates — with the given number of retry
// storms inflating the host's enumeration backlog (§V-B's flaky-cable
// symptom). The disk's data is untouched.
func (c *Cluster) FlapLink(id string, storms int) error {
	if c.Fabric.Node(fabric.NodeID(id)) == nil {
		return fmt.Errorf("core: unknown disk %s", id)
	}
	dev := c.Binding.Device(fabric.NodeID(id))
	host := c.Binding.HostOf(fabric.NodeID(id))
	if dev == nil || host == "" {
		return fmt.Errorf("core: disk %s not attached", id)
	}
	hc := c.Binding.HostController(host)
	if hc == nil {
		return fmt.Errorf("core: no host controller for %s", host)
	}
	return hc.FlapDevice(dev, 750*time.Millisecond, storms)
}

// DowngradeLink renegotiates a disk's USB link down to high-speed (a bad
// cable or connector dropping SuperSpeed lanes): the device-level link cap
// throttles transfers to USB 2.0 rates plus a severity-scaled turnaround
// penalty per IO.
func (c *Cluster) DowngradeLink(id string, severity float64) error {
	if c.Fabric.Node(fabric.NodeID(id)) == nil {
		return fmt.Errorf("core: unknown disk %s", id)
	}
	dev := c.Binding.Device(fabric.NodeID(id))
	host := c.Binding.HostOf(fabric.NodeID(id))
	if dev == nil || host == "" {
		return fmt.Errorf("core: disk %s not attached", id)
	}
	if hc := c.Binding.HostController(host); hc != nil {
		hc.SetLinkSpeed(dev, usb.LinkHigh)
	}
	if severity < 0 {
		severity = 0
	}
	if severity > 1 {
		severity = 1
	}
	if d := c.Disks[id]; d != nil {
		d.SetLinkCap(usb.HighSpeedBytesPerSec, time.Duration(severity*float64(10*time.Millisecond)))
	}
	return nil
}

// RestoreLink returns a downgraded link to SuperSpeed and removes the cap.
func (c *Cluster) RestoreLink(id string) error {
	if c.Fabric.Node(fabric.NodeID(id)) == nil {
		return fmt.Errorf("core: unknown disk %s", id)
	}
	if dev := c.Binding.Device(fabric.NodeID(id)); dev != nil {
		if host := c.Binding.HostOf(fabric.NodeID(id)); host != "" {
			if hc := c.Binding.HostController(host); hc != nil {
				hc.SetLinkSpeed(dev, usb.LinkSuper)
			}
		}
	}
	if d := c.Disks[id]; d != nil {
		d.SetLinkCap(0, 0)
	}
	return nil
}

// BrownoutHost inflates every RPC and block transfer to and from a host's
// machine by a severity-scaled delay (CPU starvation, memory pressure, a
// saturated NIC — the host equivalent of a fail-slow disk).
func (c *Cluster) BrownoutHost(host string, severity float64) {
	if severity <= 0 {
		severity = 0.5
	}
	if severity > 1 {
		severity = 1
	}
	c.Net.SetMachineBrownout(host, time.Duration(severity*float64(100*time.Millisecond)))
}

// EndBrownout clears a host brownout.
func (c *Cluster) EndBrownout(host string) {
	c.Net.SetMachineBrownout(host, 0)
}

// DiskCountOn returns how many disks SysStat places on host (via the
// active master; 0 if none active).
func (c *Cluster) DiskCountOn(host string) int {
	m := c.ActiveMaster()
	if m == nil {
		return 0
	}
	n := 0
	for _, d := range c.Fabric.Disks() {
		if m.DiskHost(string(d)) == host {
			n++
		}
	}
	return n
}
