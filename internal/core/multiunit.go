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
// USB binding, control plane, two Controllers, and the EndPoints of its
// hosts. A Cluster owns one or more rigs, all managed by the same Master
// quorum.
type UnitRig struct {
	ID      string
	Fabric  *fabric.Fabric
	Binding *fabric.Binding
	Plane   *fabric.ControlPlane
	Ctrls   []*Controller
}

// buildUnit assembles one deploy unit: disks, control plane, binding,
// controllers, endpoints, and co-location. Disk handles and EndPoints are
// registered into the cluster-wide maps (host names and disk IDs are
// namespaced per unit, so the maps stay flat).
func buildUnit(c *Cluster, unitID string, fcfg fabric.Config, masterNodes []string) (*UnitRig, error) {
	cfg := c.Cfg
	sched := c.Sched
	net := c.Net
	build := fabric.BuildSwitchHigh
	if cfg.FullTrees {
		build = fabric.BuildFullTrees
	}
	fab, err := build(fcfg)
	if err != nil {
		return nil, fmt.Errorf("building fabric for %s: %w", unitID, err)
	}
	rig := &UnitRig{ID: unitID, Fabric: fab}

	unitDisks := make(map[string]*disk.Disk)
	for _, id := range fab.Disks() {
		d := disk.New(sched, string(id), cfg.DiskParams, disk.AttachFabric)
		d.SetRecorder(cfg.Recorder)
		c.Disks[string(id)] = d
		unitDisks[string(id)] = d
	}
	RollingSpinUp(sched, unitDisks, cfg.BootSpinUpConcurrency, nil)

	hosts := fab.Hosts()
	mcuA := fabric.NewMicrocontroller("mcuA:"+unitID, hosts[0])
	mcuB := fabric.NewMicrocontroller("mcuB:"+unitID, hosts[1])
	rig.Plane = fabric.NewControlPlane(fab, mcuA, mcuB,
		func(d time.Duration, fn func()) { sched.After(d, fn) })
	rig.Plane.SetHostUp(func(h string) bool {
		ep := c.EndPoints[h]
		return ep != nil && !ep.IsDown()
	})

	limit := cfg.HostDeviceLimit
	if limit <= 0 {
		limit = usb.MaxDevicesPerTree
	}
	rig.Binding = fabric.NewBinding(fab, limit,
		func() time.Duration { return sched.Now() },
		func(d time.Duration, fn func()) { sched.After(d, fn) })

	ctrlNames := []string{controllerNode(hosts[0]), controllerNode(hosts[1])}
	rig.Ctrls = []*Controller{
		NewController(net, hosts[0], 0, cfg, fab, rig.Plane, rig.Binding),
		NewController(net, hosts[1], 1, cfg, fab, rig.Plane, rig.Binding),
	}

	for _, h := range hosts {
		rig.Binding.HostController(h).SetRecorder(cfg.Recorder)
		c.EndPoints[h] = NewEndPoint(net, h, cfg, rig.Binding.HostController(h), unitDisks, masterNodes, ctrlNames)
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

// unitFabricConfig derives unit j's fabric config: unit 0 keeps the plain
// names, later units get the "u<j>." namespace.
func unitFabricConfig(cfg Config, j int) (string, fabric.Config) {
	fcfg := cfg.Fabric
	unitID := cfg.UnitID
	if j > 0 {
		prefix := fmt.Sprintf("u%d.", j)
		fcfg.Prefix = prefix
		unitID = fmt.Sprintf("unit%d", j)
		hosts := make([]string, len(cfg.Fabric.Hosts))
		for i, h := range cfg.Fabric.Hosts {
			hosts[i] = prefix + h
		}
		fcfg.Hosts = hosts
	}
	return unitID, fcfg
}

// unitInfos derives the Master's SysConf unit inventory from the rigs.
func unitInfos(rigs []*UnitRig) []UnitInfo {
	out := make([]UnitInfo, len(rigs))
	for i, rig := range rigs {
		hosts := rig.Fabric.Hosts()
		out[i] = UnitInfo{
			ID:          rig.ID,
			Hosts:       hosts,
			Controllers: []string{controllerNode(hosts[0]), controllerNode(hosts[1])},
		}
	}
	return out
}

// allGroups collects co-moving groups across every rig.
func allGroups(rigs []*UnitRig) [][]string {
	var out [][]string
	for _, rig := range rigs {
		for _, g := range rig.Fabric.CoMovingGroups() {
			var names []string
			for _, d := range g {
				names = append(names, string(d))
			}
			out = append(out, names)
		}
	}
	return out
}
