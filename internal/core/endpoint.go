package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"ustore/internal/block"
	"ustore/internal/disk"
	"ustore/internal/model"
	"ustore/internal/obs"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
	"ustore/internal/usb"
)

// EndPoint runs on each host connected to a deploy unit (§IV-B). It
// heartbeats host and disk status to the Master, reports the local USB tree
// to the Controllers, and exposes allocated spaces as block targets.
type EndPoint struct {
	host  string
	cfg   Config
	sched *simtime.Scheduler
	rpc   *simnet.RPCNode
	tgt   *block.Target
	hc    *usb.HostController

	// disks maps disk ID -> device handle for disks physically in the
	// unit; attached lists the ones currently enumerated on this host,
	// sorted (isAttached).
	disks    map[string]*disk.Disk
	attached []string

	// exports tracks live exports: space -> disk; volumes holds the local
	// Volume serving each export (the scrubber sweeps these directly).
	exports map[SpaceID]ExportArgs
	volumes map[SpaceID]block.Volume

	masters     []string
	controllers []string
	hbSeq       uint64
	usbSeq      uint64
	activeHint  string
	hintNode    string // masterNode(activeHint), "" while there is no hint
	down        bool

	pm    *PowerManager
	scrub *Scrubber

	// cHeartbeats is the pre-resolved heartbeats_total handle (nil-safe),
	// resolved once instead of per heartbeat tick.
	cHeartbeats *obs.Counter
	// onHeartbeatReply is heartbeatReply bound once, so a beat builds no
	// closure per target.
	onHeartbeatReply func(any, error)
}

// endpointNode returns an EndPoint's RPC node name.
func endpointNode(host string) string { return "ep:" + host }

// NewEndPoint creates host's EndPoint. masters and controllers are the RPC
// node names to report to.
func NewEndPoint(net *simnet.Network, host string, cfg Config, hc *usb.HostController,
	disks map[string]*disk.Disk, masters, controllers []string) *EndPoint {
	ep := &EndPoint{
		host:        host,
		cfg:         cfg,
		sched:       net.Scheduler(),
		rpc:         simnet.NewRPCNode(net, endpointNode(host)),
		tgt:         block.NewTarget(net, host),
		hc:          hc,
		disks:       disks,
		exports:     make(map[SpaceID]ExportArgs),
		volumes:     make(map[SpaceID]block.Volume),
		masters:     masters,
		controllers: controllers,
		cHeartbeats: cfg.Recorder.Counter("core", "heartbeats_total"),
	}
	ep.onHeartbeatReply = ep.heartbeatReply
	ep.rpc.RegisterAsync("Export", ep.handleExport)
	ep.rpc.Register("Unexport", ep.handleUnexport)
	ep.rpc.Register("DiskPower", ep.handleDiskPower)
	if cfg.SpinDownIdle > 0 {
		ep.pm = NewPowerManager(ep, cfg.SpinDownIdle)
	}
	if cfg.ScrubInterval > 0 {
		ep.scrub = NewScrubber(ep, cfg.ScrubInterval)
	}
	ep.heartbeatLoop()
	return ep
}

// PowerManager returns the endpoint's power manager (nil if disabled).
func (ep *EndPoint) PowerManager() *PowerManager { return ep.pm }

// isAttached reports whether diskID is enumerated on this host.
func (ep *EndPoint) isAttached(diskID string) bool {
	_, ok := slices.BinarySearch(ep.attached, diskID)
	return ok
}

// Down crashes or restores the host (EndPoint and its block target stop
// responding; heartbeats cease).
func (ep *EndPoint) Down(down bool) {
	ep.down = down
	ep.rpc.Node().SetDown(down)
	ep.tgt.Down(down)
}

// IsDown reports the crash state.
func (ep *EndPoint) IsDown() bool { return ep.down }

// DiskEnumerated is called (by the cluster wiring) when the fabric binding
// enumerates a storage device on this host.
func (ep *EndPoint) DiskEnumerated(diskID string) {
	i, in := slices.BinarySearch(ep.attached, diskID)
	if in {
		return
	}
	ep.attached = slices.Insert(ep.attached, i, diskID)
	ep.cfg.History.Point(model.Op{Kind: model.OpAttach, Client: ep.host, Disk: diskID, Host: ep.host})
	d := ep.disks[diskID]
	if d != nil {
		d.SetInterconnect(disk.AttachFabric)
	}
	ep.sendUSBReport()
	ep.sendHeartbeat() // prompt the Master so exports happen quickly
}

// DiskDetached is called when a storage device disappears from this host.
func (ep *EndPoint) DiskDetached(diskID string) {
	i, in := slices.BinarySearch(ep.attached, diskID)
	if !in {
		return
	}
	ep.attached = slices.Delete(ep.attached, i, i+1)
	ep.cfg.History.Point(model.Op{Kind: model.OpDetach, Client: ep.host, Disk: diskID, Host: ep.host})
	// Revoke exports living on the vanished disk (sorted for determinism).
	// Skipping this leaves the host serving a stale lease on a disk that
	// has moved away; only the model checker sees that.
	for _, space := range ep.exportedSpaces() {
		if ep.exports[space].DiskID == diskID {
			ep.tgt.Revoke(string(space))
			delete(ep.exports, space)
			delete(ep.volumes, space)
			ep.cfg.History.Point(model.Op{Kind: model.OpRevoke, Client: ep.host, Space: string(space), Host: ep.host})
		}
	}
	ep.sendUSBReport()
	ep.sendHeartbeat()
}

// diskState reports a disk's SysStat state.
func (ep *EndPoint) diskState(diskID string) DiskState {
	d := ep.disks[diskID]
	if d == nil {
		return DiskMissing
	}
	switch d.State() {
	case disk.StatePoweredOff:
		return DiskPoweredOff
	case disk.StateSpunDown:
		return DiskSpunDown
	default:
		return DiskOnline
	}
}

// --- Heartbeats (§IV-B) ---

// heartbeatLoop arms the endpoint's next heartbeat.
func (ep *EndPoint) heartbeatLoop() {
	ep.sched.FireAfterR(ep.cfg.HeartbeatInterval, (*heartbeatTimer)(ep))
}

// heartbeatTimer is the receiver of an endpoint's heartbeat events.
type heartbeatTimer EndPoint

func (t *heartbeatTimer) Fire() {
	ep := (*EndPoint)(t)
	if !ep.down {
		ep.sendHeartbeat()
	}
	ep.heartbeatLoop()
}

func (ep *EndPoint) sendHeartbeat() {
	if ep.down {
		return
	}
	ep.hbSeq++
	ep.cHeartbeats.Inc()
	// Each beat gets its own infos: a retried beat's payload is still in
	// flight when the next one is built.
	ids := ep.attached
	var infos []DiskInfo
	if len(ids) > 0 {
		infos = make([]DiskInfo, 0, len(ids))
	}
	for _, id := range ids {
		info := DiskInfo{ID: id, State: ep.diskState(id)}
		if d := ep.disks[id]; d != nil {
			info.Health = d.Health()
		}
		infos = append(infos, info)
	}
	// Boxed once: every target is sent the same read-only beat.
	var hb any = HeartbeatArgs{Host: ep.host, Seq: ep.hbSeq, Disks: infos}
	// Send to the believed active master first, then to every other. Each
	// send retries once on loss, so one dropped message doesn't cost a whole
	// heartbeat cycle of failure-detection budget. A resend or a duplicate
	// carries the beat's Seq, which the master has already counted, so it
	// does not refresh the host's liveness.
	retry := simnet.RetryOpts{
		Attempts: 2,
		Timeout:  ep.cfg.RPCTimeout,
		Backoff:  ep.cfg.RPCTimeout / 8,
	}
	hint := ep.hintNode
	if hint != "" {
		ep.rpc.CallWithRetry(hint, "Heartbeat", hb, 128, retry, ep.onHeartbeatReply)
	}
	for _, t := range ep.masters { // each replica once
		if t == hint {
			continue
		}
		ep.rpc.CallWithRetry(t, "Heartbeat", hb, 128, retry, ep.onHeartbeatReply)
	}
}

// heartbeatReply follows a standby's pointer to the active master.
func (ep *EndPoint) heartbeatReply(res any, err error) {
	if err != nil {
		return
	}
	if rep, ok := res.(HeartbeatReply); ok && !rep.Active && rep.ActiveHint != "" && rep.ActiveHint != ep.activeHint {
		ep.activeHint, ep.hintNode = rep.ActiveHint, masterNode(rep.ActiveHint)
	}
}

// --- USB Monitor (§IV-B) ---

func (ep *EndPoint) sendUSBReport() {
	if ep.down {
		return
	}
	ep.usbSeq++
	var storage, hubs []string
	for _, e := range ep.hc.Tree() {
		switch e.Class {
		case usb.ClassStorage:
			storage = append(storage, e.ID)
		case usb.ClassHub:
			hubs = append(hubs, e.ID)
		}
	}
	rep := USBReportArgs{Host: ep.host, Storage: storage, Hubs: hubs, Seq: ep.usbSeq}
	for _, ctl := range ep.controllers {
		ep.rpc.Call(ctl, "USBReport", rep, 256, ep.cfg.RPCTimeout, func(any, error) {})
	}
}

// --- Export management (§IV-B: iSCSI target) ---

// ExportSetupDelay models iSCSI target/LUN creation time on the host (the
// middle component of the paper's Figure 6 decomposition, ~flat per batch).
const ExportSetupDelay = 600 * time.Millisecond

func (ep *EndPoint) handleExport(from string, args any, reply *simnet.AsyncReply) {
	ex := args.(ExportArgs)
	rec := ep.cfg.Recorder
	span := rec.Begin("core", "export", ep.host,
		obs.L("space", string(ex.Space)), obs.L("disk", ex.DiskID))
	if !ep.isAttached(ex.DiskID) {
		span.End(obs.L("status", "not-attached"))
		reply.Reply(nil, fmt.Errorf("core: disk %s not attached to %s", ex.DiskID, ep.host))
		return
	}
	d := ep.disks[ex.DiskID]
	// Exports verify per-block CRCs end to end unless the deployment
	// explicitly opts out; the CRC sidecar lives on the disk itself, so a
	// space keeps its checksums when it fails over to another host.
	var vol block.Volume
	var err error
	if ep.cfg.DisableChecksums {
		vol, err = block.NewDiskVolume(d, ex.Offset, ex.Size)
	} else {
		vol, err = block.NewChecksumDiskVolume(d, ex.Offset, ex.Size)
	}
	if err != nil {
		span.End(obs.L("status", "bad-extent"))
		reply.Reply(nil, fmt.Errorf("exporting %s: %w", ex.Space, err))
		return
	}
	ep.sched.FireAfter(ExportSetupDelay, func() {
		if ep.down || !ep.isAttached(ex.DiskID) {
			span.End(obs.L("status", "lost-disk"))
			reply.Reply(nil, fmt.Errorf("core: %s lost %s during export setup", ep.host, ex.DiskID))
			return
		}
		ep.tgt.Export(string(ex.Space), vol)
		ep.exports[ex.Space] = ex
		ep.volumes[ex.Space] = vol
		ep.cfg.History.Point(model.Op{Kind: model.OpExport, Client: ep.host, Space: string(ex.Space), Disk: ex.DiskID, Host: ep.host})
		rec.Counter("core", "exports_total").Inc()
		span.End(obs.L("status", "ok"))
		reply.Reply(struct{}{}, nil)
	})
}

func (ep *EndPoint) handleUnexport(from string, args any) (any, error) {
	u := args.(UnexportArgs)
	ep.tgt.Revoke(string(u.Space))
	delete(ep.exports, u.Space)
	delete(ep.volumes, u.Space)
	ep.cfg.History.Point(model.Op{Kind: model.OpRevoke, Client: ep.host, Space: string(u.Space), Host: ep.host})
	return struct{}{}, nil
}

// handleDiskPower executes a service's spin command forwarded by the
// Master (§IV-F).
func (ep *EndPoint) handleDiskPower(from string, args any) (any, error) {
	p := args.(DiskPowerArgs)
	d := ep.disks[p.DiskID]
	if d == nil || !ep.isAttached(p.DiskID) {
		return nil, fmt.Errorf("core: disk %s not attached to %s", p.DiskID, ep.host)
	}
	if p.Up {
		d.SpinUp()
	} else {
		d.SpinDown()
	}
	ep.cfg.History.Point(model.Op{Kind: model.OpPower, Client: ep.host, Disk: p.DiskID, Host: ep.host, Up: p.Up})
	return struct{}{}, nil
}

// Scrubber returns the endpoint's background scrubber (nil if disabled).
func (ep *EndPoint) Scrubber() *Scrubber { return ep.scrub }

// exportedSpaces returns the live exports in sorted order (deterministic
// iteration for the scrubber's cursor).
func (ep *EndPoint) exportedSpaces() []SpaceID {
	out := make([]SpaceID, 0, len(ep.exports))
	for sp := range ep.exports {
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasExport reports whether a space is currently exported here.
func (ep *EndPoint) HasExport(space SpaceID) bool {
	_, ok := ep.exports[space]
	return ok
}
