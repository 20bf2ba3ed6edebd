// Package core implements UStore's software architecture (§IV): the
// replicated Master (SysConf/SysStat/StorAlloc, failure detection, failover
// scheduling), the per-unit Controller pair (Algorithm 1 execution over the
// control plane, verification, rollback), the per-host EndPoint (heartbeats,
// USB monitoring, block-target export), the ClientLib (allocation, mounting,
// transparent remount after failover), and the power manager (adaptive
// spin-down, cascading fabric power-off).
package core

import (
	"time"

	"ustore/internal/disk"
	"ustore/internal/fabric"
	"ustore/internal/model"
	"ustore/internal/obs"
	"ustore/internal/paxos"
)

// SpaceID uniquely identifies allocated storage in the global namespace
// </DeployUnitID/DiskID/SpaceID> (§IV-A).
type SpaceID string

// DiskState mirrors SysStat's view of a disk.
type DiskState string

// SysStat disk states (§IV-A: online, spun down, or powered off).
const (
	DiskOnline     DiskState = "online"
	DiskSpunDown   DiskState = "spun-down"
	DiskPoweredOff DiskState = "powered-off"
	DiskMissing    DiskState = "missing" // not visible on any host
)

// The deployment's fixed shape and timings: every run uses these values, so
// they are constants, not Config fields (DESIGN.md §17).
const (
	// unitID names the deploy unit; it leads every SpaceID.
	unitID = "unit0"
	// masterReplicas is the size of the Master/coord quorum (paper: ~5).
	masterReplicas = 3
	// hostDeadAfter is how many missed heartbeats declare a host dead.
	hostDeadAfter = 3
	// verifyTimeout bounds the Controller's post-turn verification before
	// rollback (the paper uses 30s).
	verifyTimeout = 10 * time.Second
)

// diskParams calibrates the unit's disks: the prototype's 3 TB drive.
var diskParams = disk.DT01ACA300()

// Config parameterizes a cluster build.
type Config struct {
	// Fabric is the unit's topology config.
	Fabric fabric.Config
	// FullTrees selects the Figure 2 (left) per-disk-switch topology
	// instead of the default switch-high design.
	FullTrees bool
	// HeartbeatInterval is the EndPoint heartbeat period.
	HeartbeatInterval time.Duration
	// SpinDownIdle is the power manager's initial idle threshold
	// (0 disables automatic spin-down).
	SpinDownIdle time.Duration
	// BootSpinUpConcurrency caps how many disks spin up simultaneously at
	// power-on (§III-B rolling spin-up). 0 spins everything at once.
	BootSpinUpConcurrency int
	// HostDeviceLimit caps how many USB devices (hubs included) each
	// host's controller enumerates; 0 means the full 127-device USB
	// limit. Set to usb.IntelRootHubDeviceLimit (14) to reproduce the
	// prototype's §V-B driver quirk.
	HostDeviceLimit int
	// RPCTimeout bounds control-plane RPCs.
	RPCTimeout time.Duration
	// ElectionTTL is the master-election session TTL. Long simulated
	// horizons raise it so session keep-alives don't dominate the event
	// budget.
	ElectionTTL time.Duration
	// Paxos is the coord quorum's consensus timing. Chaos soaks stretch it
	// to keep a 100-day run's event count simulable.
	Paxos paxos.Config
	// CoordSweepInterval is the coord leader's session-expiry scan period.
	// Must stay well under ElectionTTL.
	CoordSweepInterval time.Duration
	// DisableChecksums turns off the per-block CRC volume wrapper on
	// exports, re-exposing silent media corruption to clients (used by the
	// chaos harness to prove its invariant checker catches real loss).
	DisableChecksums bool
	// ScrubInterval enables the EndPoint background scrubber: every
	// interval each endpoint verifies one block of one exported space
	// during disk idle windows, repairing via the configured repair hook.
	// 0 disables scrubbing.
	ScrubInterval time.Duration
	// Seed drives the deterministic simulation.
	Seed int64
	// Recorder, when non-nil, collects metrics and trace events from every
	// component of the cluster (see internal/obs). Each run should use its
	// own Recorder so concurrent tests don't collide; nil disables all
	// instrumentation.
	Recorder *obs.Recorder
	// History, when non-nil, records every metadata operation — client
	// allocate/release/lookup/mount/remount plus endpoint export/revoke,
	// disk attach/detach, and power commands — stamped with simulated time,
	// for the internal/model linearizability checker. Like Recorder, use a
	// fresh History per run; nil disables recording.
	History *model.History
	// HealthQuarantine enables the Master's gray-disk detector: per-disk
	// health shipped in heartbeats is compared against the cohort, and
	// disks whose tail latency diverges (fail-slow, not fail-stop) are
	// quarantined — excluded from new allocations and flagged for
	// proactive migration — until they recover.
	HealthQuarantine bool

	// Protection, when non-nil, arms the overload-protection stack: the
	// Master's per-caller metadata-RPC throttle and the admission classes
	// NewProtector wires over the cluster's disks (admission control,
	// per-tenant rate limits, per-disk breakers, autoscaling — see
	// protection.go). nil keeps every default run byte-identical.
	Protection *ProtectionConfig
}

// DefaultConfig returns the paper's prototype shape (one unit, 16 disks,
// 4 hosts, 4-port hubs) and the control loop's default timings.
func DefaultConfig() Config {
	return Config{
		Fabric: fabric.Config{
			Hosts: []string{"h1", "h2", "h3", "h4"},
			Disks: 16,
			FanIn: 4,
		},
		HeartbeatInterval:  500 * time.Millisecond,
		RPCTimeout:         time.Second,
		ElectionTTL:        2 * time.Second,
		Paxos:              paxos.DefaultConfig(),
		CoordSweepInterval: 250 * time.Millisecond,
		Seed:               1,
	}
}

// --- Wire types (simnet RPC payloads) ---

// DiskInfo is one disk's row in a heartbeat. Health carries the EndPoint's
// SMART-style per-disk counters (latency EWMAs, error counts) so the Master
// can do cohort comparison without extra RPCs (§IV-B: "healthiness ...
// information of both the hosts and the disks").
type DiskInfo struct {
	ID     string
	State  DiskState
	Health disk.HealthStats
}

// HeartbeatArgs is the EndPoint's periodic report to the Master (§IV-B:
// "healthiness and workload information of both the hosts and the disks").
type HeartbeatArgs struct {
	Host  string
	Seq   uint64
	Disks []DiskInfo
}

// HeartbeatReply tells the EndPoint whether it reached the active master.
type HeartbeatReply struct {
	Active bool
	// ActiveHint names the believed active master when Active is false.
	ActiveHint string
}

// AllocateArgs asks the Master for storage space (§IV-A allocation rules:
// same-service disk affinity, then client locality).
type AllocateArgs struct {
	Service string
	Size    int64
	// ClientHost hints locality (the host nearest the client).
	ClientHost string
}

// AllocateReply returns the allocated space and where to mount it.
type AllocateReply struct {
	Space  SpaceID
	DiskID string
	Host   string
	Offset int64
	Size   int64
}

// ReleaseArgs frees an allocation.
type ReleaseArgs struct {
	Space SpaceID
}

// LookupArgs resolves a space to its current host (the ClientLib's
// directory service, §IV-D).
type LookupArgs struct {
	Space SpaceID
}

// LookupReply carries the space's current location and disk state.
type LookupReply struct {
	Host   string
	DiskID string
	Offset int64
	Size   int64
	State  DiskState
}

// DiskPowerArgs lets a service spin its own disks up or down (§IV-F).
type DiskPowerArgs struct {
	Service string
	DiskID  string
	// Up spins up when true, down when false.
	Up bool
}

// ExportArgs tells an EndPoint to expose a space as a block target.
type ExportArgs struct {
	Space  SpaceID
	DiskID string
	Offset int64
	Size   int64
}

// UnexportArgs revokes an export.
type UnexportArgs struct {
	Space SpaceID
}

// ExecuteArgs is the Master->Controller topology command ("connect disk A
// to host H1 and disk C to host H2", §IV-C).
type ExecuteArgs struct {
	Pairs []fabric.DiskHost
	// Force applies the command even if it disturbs unlisted disks (the
	// Master chose to "ignore the conflicts").
	Force bool
}

// ExecuteReply reports the outcome.
type ExecuteReply struct {
	// Turned lists the switches that were flipped.
	Turned int
	// Disturbed lists disks outside the command that moved (Force only).
	Disturbed []string
}

// USBReportArgs is the EndPoint USB Monitor's tree snapshot for the
// Controller (§IV-B: "lsusb -t").
type USBReportArgs struct {
	Host string
	// Storage lists enumerated storage device IDs.
	Storage []string
	// Hubs lists enumerated hub IDs.
	Hubs []string
	Seq  uint64
}

// NodePowerArgs is the Master->Controller relay command for a disk or hub
// supply (cascading fabric power-off, §IV-F).
type NodePowerArgs struct {
	Node string
	On   bool
}
