package core

import (
	"fmt"
	"time"

	"ustore/internal/block"
	"ustore/internal/disk"
	"ustore/internal/fabric"
	"ustore/internal/usb"
)

// UnitRig is one deploy unit's hardware and per-host software: its fabric,
// USB binding, control plane and two Controllers (the EndPoints of its hosts
// live in the Cluster's map). A Cluster runs exactly one rig; the sharded
// fleet (internal/fleet) is how UStore spans many units (§IV: "one Master and
// a number of deploy units").
type UnitRig struct {
	Fabric  *fabric.Fabric
	Binding *fabric.Binding
	Plane   *fabric.ControlPlane
	Ctrls   []*Controller
}

// buildUnit assembles the deploy unit: disks, control plane, binding,
// controllers, endpoints, and co-location. Disk handles and EndPoints are
// registered into the cluster's maps.
func buildUnit(c *Cluster, masterNodes []string) (*UnitRig, error) {
	cfg := c.Cfg
	sched := c.Sched
	net := c.Net
	build := fabric.BuildSwitchHigh
	if cfg.FullTrees {
		build = fabric.BuildFullTrees
	}
	fab, err := build(cfg.Fabric)
	if err != nil {
		return nil, fmt.Errorf("building fabric for %s: %w", unitID, err)
	}
	rig := &UnitRig{Fabric: fab}

	for _, id := range fab.Disks() {
		d := disk.New(sched, string(id), diskParams, disk.AttachFabric)
		d.SetRecorder(cfg.Recorder)
		c.Disks[string(id)] = d
	}
	RollingSpinUp(sched, c.Disks, cfg.BootSpinUpConcurrency, nil)

	hosts := fab.Hosts()
	mcuA := fabric.NewMicrocontroller("mcuA:"+unitID, hosts[0])
	mcuB := fabric.NewMicrocontroller("mcuB:"+unitID, hosts[1])
	rig.Plane = fabric.NewControlPlane(fab, mcuA, mcuB, sched.FireAfter)
	rig.Plane.SetHostUp(func(h string) bool {
		ep := c.EndPoints[h]
		return ep != nil && !ep.IsDown()
	})

	limit := cfg.HostDeviceLimit
	if limit <= 0 {
		limit = usb.MaxDevicesPerTree
	}
	rig.Binding = fabric.NewBinding(fab, limit,
		func() time.Duration { return sched.Now() }, sched.FireAfter)

	ctrlNames := []string{controllerNode(hosts[0]), controllerNode(hosts[1])}
	rig.Ctrls = []*Controller{
		NewController(net, hosts[0], 0, cfg, fab, rig.Plane, rig.Binding),
		NewController(net, hosts[1], 1, cfg, fab, rig.Plane, rig.Binding),
	}

	for _, h := range hosts {
		rig.Binding.HostController(h).SetRecorder(cfg.Recorder)
		c.EndPoints[h] = NewEndPoint(net, h, cfg, rig.Binding.HostController(h), c.Disks, masterNodes, ctrlNames)
		net.Colocate(endpointNode(h), h)
		net.Colocate(block.TargetNode(h), h)
		net.Colocate(controllerNode(h), h)
	}

	rig.Binding.OnStorageEnumerated = func(host string, d fabric.NodeID) {
		if ep := c.EndPoints[host]; ep != nil {
			ep.DiskEnumerated(string(d))
		}
	}
	rig.Binding.OnStorageDetached = func(host string, d fabric.NodeID) {
		if ep := c.EndPoints[host]; ep != nil {
			ep.DiskDetached(string(d))
		}
	}
	return rig, nil
}
