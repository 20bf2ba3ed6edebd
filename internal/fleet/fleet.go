// Package fleet scales the UStore control plane from one deploy unit to a
// datacenter: metadata is partitioned into N shards, each a replicated
// state machine behind its own Paxos group; clients route volume operations
// through a cached shard map (slot-hashed, epoch-versioned, repaired by
// stale-reply retry); placement spreads each volume's fragments across
// failure domains (host < hub < unit < rack) under per-unit power budgets;
// and a per-shard background scheduler turns heartbeat-reported state into
// rate-limited repair, drain, rebalance, migration and inspection tasks —
// so losing a whole unit drains its volumes onto survivors with no
// foreground involvement.
//
// Layering: fleet reuses coord (ZooKeeper-like store per shard group, one
// replica per shard master, colocated on the master's machine), paxos
// (consensus under coord), simnet/simtime (deterministic transport and
// clock) and placement (the Spread policy extracted from core.Master).
//
// There is one execution path: every fleet runs on the conservative
// parallel engine (simtime.Engine + simnet.Fabric, DESIGN.md §14), one
// partition per deploy unit plus a control partition for the admin plane
// and client routers, synchronized in lookahead-bounded windows. The
// fabric charges every cross-unit hop at least crossUnitLatency, and no
// component reads another partition's state mid-run: the admin plane and
// shard masters discover a foreign shard's leader the way clients do, by
// calling the believed replica and rotating on failure. Worker count
// (Config.EngineWorkers) only caps the goroutines that execute a window, so
// a run with the same seed is byte-identical at any count and any -test.cpu.
package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"ustore/internal/coord"
	"ustore/internal/obs"
	"ustore/internal/paxos"
	"ustore/internal/placement"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// Config shapes a simulated fleet. Zero values pick defaults sized for a
// small test fleet; production-scale runs set Units/Shards explicitly.
type Config struct {
	// Units is the number of deploy units (default 8).
	Units int
	// Racks is the number of racks units are striped over (default
	// max(2, Units/8)).
	Racks int
	// HostsPerUnit is servers per unit (default 4).
	HostsPerUnit int
	// DisksPerHost is disks per server (default 16).
	DisksPerHost int
	// HubFanIn is disks per hub (§III: disks attach to hosts through
	// hub groups; default 4).
	HubFanIn int

	// Shards is the number of metadata shards (default 1).
	Shards int
	// ShardReplicas is the Paxos group size per shard (default 3).
	ShardReplicas int

	// Replicas is fragments placed per volume (default 3).
	Replicas int
	// SpreadLevel is the failure domain no two fragments may share
	// (default placement.LevelUnit).
	SpreadLevel placement.Level
	// DiskCapacity is bytes per disk (default 3e12, a 3TB archival SMR).
	DiskCapacity int64
	// MaxSpinningPerUnit is the unit power budget in spinning disks
	// (default half the unit's disks).
	MaxSpinningPerUnit int

	// HeartbeatInterval is the unit agent report period (default 5s).
	HeartbeatInterval time.Duration
	// UnitDeadAfter is how many missed heartbeat intervals declare a unit
	// dead (default 3).
	UnitDeadAfter int
	// OpServiceTime is the serial CPU cost of one metadata operation on a
	// shard leader — the bottleneck shard scaling divides (default 1ms).
	OpServiceTime time.Duration
	// RPCTimeout bounds client and control RPCs (default 3s).
	RPCTimeout time.Duration

	// ElectionTTL is the shard-leader session TTL (default 10s).
	ElectionTTL time.Duration
	// CoordSweepInterval is the coord session-expiry scan period (default
	// 2s — stretched with the TTL so 48 groups stay inside the event
	// budget).
	CoordSweepInterval time.Duration
	// Paxos tunes each shard group's consensus timing. Zero fields get
	// stretched fleet defaults (1s heartbeats).
	Paxos paxos.Config

	// Scheduler tunes the per-shard background task scheduler.
	Scheduler SchedulerConfig

	// RetryJitter enables full-jitter exponential backoff on router retries
	// (default off keeps the legacy fixed delays, which the checked-in
	// byte-stability goldens were recorded under). Chaos runs turn it on:
	// under partitions, synchronized fixed-delay retries from many clients
	// arrive as lockstep waves at a recovering leader.
	RetryJitter bool
	// InjectSkipRedrive plants a recovery bug for the chaos minimizer to
	// catch: RedriveMoves bumps the map epoch for interrupted migrations
	// without re-driving the freeze→handoff→install→drop chain, stranding
	// handed-off records on the source shard. Never set outside tests.
	InjectSkipRedrive bool

	// Seed seeds the simulation (default 1).
	Seed int64
	// Recorder receives fleet metrics and traces (nil = no recording).
	Recorder *obs.Recorder

	// EngineWorkers caps the goroutines that execute one engine window
	// (1 = inline, no goroutines; never more than one per active
	// partition); within the cap the engine runs each window inline or
	// fanned out, whichever it has measured to be cheaper. 0 derives the
	// cap: runtime.GOMAXPROCS(0). It is a cap and nothing else — a run is
	// byte-identical at any value.
	EngineWorkers int
}

func (c Config) withDefaults() Config {
	if c.Units <= 0 {
		c.Units = 8
	}
	if c.Racks <= 0 {
		c.Racks = c.Units / 8
		if c.Racks < 2 {
			c.Racks = 2
		}
	}
	if c.HostsPerUnit <= 0 {
		c.HostsPerUnit = 4
	}
	if c.DisksPerHost <= 0 {
		c.DisksPerHost = 16
	}
	if c.HubFanIn <= 0 {
		c.HubFanIn = 4
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.ShardReplicas <= 0 {
		c.ShardReplicas = 3
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.SpreadLevel == 0 {
		c.SpreadLevel = placement.LevelUnit
	}
	if c.DiskCapacity <= 0 {
		c.DiskCapacity = 3e12
	}
	if c.MaxSpinningPerUnit <= 0 {
		c.MaxSpinningPerUnit = c.HostsPerUnit * c.DisksPerHost / 2
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 5 * time.Second
	}
	if c.UnitDeadAfter <= 0 {
		c.UnitDeadAfter = 3
	}
	if c.OpServiceTime <= 0 {
		c.OpServiceTime = time.Millisecond
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 3 * time.Second
	}
	if c.ElectionTTL <= 0 {
		c.ElectionTTL = 10 * time.Second
	}
	if c.CoordSweepInterval <= 0 {
		c.CoordSweepInterval = 2 * time.Second
	}
	if c.Paxos.HeartbeatInterval <= 0 {
		c.Paxos.HeartbeatInterval = time.Second
	}
	if c.Paxos.ElectionTimeoutBase <= 0 {
		c.Paxos.ElectionTimeoutBase = 4 * time.Second
	}
	if c.Paxos.PhaseTimeout <= 0 {
		c.Paxos.PhaseTimeout = 2 * time.Second
	}
	c.Scheduler = c.Scheduler.withDefaults()
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fleet is an assembled simulated fleet: topology, shard groups, unit
// agents, and the admin plane driving slot migrations.
type Fleet struct {
	Cfg   Config
	Sched *simtime.Scheduler
	Net   *simnet.Network
	Topo  *Topology

	// Engine/Fabric run the fleet: partition 0 is the control plane (admin
	// node, routers, the Settle driver) and partition 1+u is deploy unit u.
	// Sched/Net are the control partition's handles.
	Engine *simtime.Engine
	Fabric *simnet.Fabric

	// Shards[k][i] is replica i of shard k.
	Shards [][]*ShardMaster
	// Stores[k][i] is the coord replica backing Shards[k][i].
	Stores [][]*coord.Store
	// Agents[u] is unit u's heartbeat agent.
	Agents []*Agent

	rec   *obs.Recorder
	admin *simnet.RPCNode
	// nets/recs are the per-partition network and recorder handles
	// (index = partition).
	nets []*simnet.Network
	recs []*obs.Recorder
	// userRec is Cfg.Recorder; FinishObs folds the partition recorders
	// into it once a run completes.
	userRec     *obs.Recorder
	obsFinished bool
	// replicaNames[k] lists shard k's master RPC names — static topology,
	// safe to read from any partition.
	replicaNames [][]string
	// adminBelieved[k] is the control plane's believed-leader replica index
	// for shard k. The control partition cannot peek other partitions'
	// leader flags mid-run, so the admin discovers leaders like clients do:
	// call the believed replica, rotate on failure.
	adminBelieved []int
	// authMap is the admin plane's authoritative shard map (advanced by
	// MoveSlot; routers bootstrap from a clone).
	authMap *ShardMap
	// deadUnits records KillUnit victims (validators skip their replicas).
	deadUnits map[string]bool
	// pendingMoves records slot migrations started but not yet completed
	// (slot -> destination shard): the admin-side intent ledger RedriveMoves
	// re-drives after faults interrupt a MoveSlot chain.
	pendingMoves map[int]int
}

// crossUnitLatency is the minimum latency of any cross-unit network link —
// the lookahead the conservative engine synchronizes on. Every message that
// crosses a deploy-unit boundary takes at least this long.
const crossUnitLatency = time.Millisecond

// part bundles the simulation handles a component is built on: each
// partition has its own scheduler/network/recorder triple.
type part struct {
	sched *simtime.Scheduler
	net   *simnet.Network
	rec   *obs.Recorder
}

// unitPart is the partition deploy unit u's processes run on.
func (f *Fleet) unitPart(u int) part {
	return part{f.Engine.Part(1 + u), f.nets[1+u], f.recs[1+u]}
}

// unitMachine is the simnet machine name every process of a unit shares.
func unitMachine(unitID string) string { return "mach-" + unitID }

// replicaUnit places replica i of shard k on unit (k*R+i) mod Units: each
// shard's replicas land on R distinct units (Units >= Shards*Replicas in
// any sane fleet keeps distinct units per group even when shards share
// units), so losing one unit kills at most one replica of any group.
func (c Config) replicaUnit(shard, replica int) int {
	return (shard*c.ShardReplicas + replica) % c.Units
}

// New assembles a fleet from cfg and starts its shard elections and unit
// agents. Call Settle to let the first leaders emerge before driving load.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{
		Cfg:          cfg,
		Topo:         buildTopology(cfg),
		userRec:      cfg.Recorder,
		deadUnits:    make(map[string]bool),
		pendingMoves: make(map[int]int),
	}
	parts := cfg.Units + 1
	workers := cfg.EngineWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) // the engine caps it at the partition count
	}
	f.Engine = simtime.NewEngine(cfg.Seed, parts, workers, crossUnitLatency)
	f.Fabric = simnet.NewFabric(f.Engine)
	f.nets = make([]*simnet.Network, parts)
	f.recs = make([]*obs.Recorder, parts)
	for p := 0; p < parts; p++ {
		f.nets[p] = f.Fabric.Network(p)
		if cfg.Recorder != nil {
			r := obs.NewRecorder()
			psched := f.Engine.Part(p)
			r.BindClock(func() time.Duration { return psched.Now() })
			f.nets[p].SetRecorder(r)
			f.recs[p] = r
		}
	}
	f.Sched, f.Net, f.rec = f.Engine.Part(0), f.nets[0], f.recs[0]
	f.adminBelieved = make([]int, cfg.Shards)

	// Shard groups: R coord replicas + R shard masters per shard, each
	// replica pair colocated on a distinct unit's machine and built on that
	// unit's partition, so the group's paxos traffic is partition-local
	// except for cross-unit hops through the fabric.
	replicas := make([][]string, cfg.Shards)
	for k := 0; k < cfg.Shards; k++ {
		peers := make([]string, cfg.ShardReplicas)
		for i := range peers {
			peers[i] = fmt.Sprintf("s%dm%d", k, i)
		}
		var stores []*coord.Store
		var masters []*ShardMaster
		for i := 0; i < cfg.ShardReplicas; i++ {
			up := f.unitPart(cfg.replicaUnit(k, i))
			st := coord.NewStore(up.net, peers[i], peers, cfg.Paxos)
			st.SetSweepInterval(cfg.CoordSweepInterval)
			m := newShardMaster(f, k, i, st, up)
			mach := unitMachine(unitName(cfg.replicaUnit(k, i)))
			up.net.Colocate(peers[i], mach)          // paxos node
			up.net.Colocate("coord:"+peers[i], mach) // coord session endpoint
			up.net.Colocate(m.rpcName, mach)         // shard master process
			stores = append(stores, st)
			masters = append(masters, m)
			replicas[k] = append(replicas[k], m.rpcName)
		}
		f.Stores = append(f.Stores, stores)
		f.Shards = append(f.Shards, masters)
	}
	f.replicaNames = replicas
	f.authMap = initialMap(cfg.Shards, replicas)
	for _, group := range f.Shards {
		for _, m := range group {
			m.installInitialMap(f.authMap)
			m.start()
		}
	}

	// Unit agents.
	for _, u := range f.Topo.Units {
		up := f.unitPart(u.Index)
		a := newAgent(f, u, replicas[u.Shard], up)
		up.net.Colocate(a.rpc.Name(), unitMachine(u.ID))
		f.Agents = append(f.Agents, a)
		a.start()
	}

	f.admin = simnet.NewRPCNode(f.Net, "fleet-admin")
	return f
}

// Settle runs the simulation for d of virtual time.
func (f *Fleet) Settle(d time.Duration) { f.Engine.RunFor(d) }

// EventsFired is the total number of simulation events executed so far,
// summed over partitions.
func (f *Fleet) EventsFired() uint64 { return f.Engine.Fired() }

// FinishObs folds the per-partition recorders into Cfg.Recorder after a
// run: series sum, trace events interleave in timestamp order. Idempotent.
func (f *Fleet) FinishObs() {
	if f.userRec == nil || f.obsFinished {
		return
	}
	f.obsFinished = true
	f.userRec.BindClock(f.Sched.Now) // every partition clock sits at the engine time
	obs.MergeRecorders(f.userRec, f.recs...)
}

// LeaderReplica returns the replica index currently leading shard k, or -1
// if the group is between leaders. While a unit is isolated its replica may
// still believe it leads behind the partition; a reachable leader always
// wins over such a stale one, whatever their index order. Introspection
// for tests, invariant checks and the chaos executor: call only at
// quiescence (between Settle calls).
func (f *Fleet) LeaderReplica(k int) int {
	stale := -1
	for i, m := range f.Shards[k] {
		if !m.leading || m.down {
			continue
		}
		u := f.Cfg.replicaUnit(k, i)
		if !f.unitPart(u).net.MachineIsolated(unitMachine(unitName(u))) {
			return i
		}
		if stale < 0 {
			stale = i
		}
	}
	return stale
}

// Leader is LeaderReplica as a *ShardMaster (nil if the group is between
// leaders).
func (f *Fleet) Leader(k int) *ShardMaster {
	if i := f.LeaderReplica(k); i >= 0 {
		return f.Shards[k][i]
	}
	return nil
}

// AuthMap returns a clone of the admin plane's authoritative shard map.
func (f *Fleet) AuthMap() *ShardMap { return f.authMap.Clone() }

// NewRouter builds a client router bootstrapped with the current map.
func (f *Fleet) NewRouter(name string) *Router { return newRouter(f, name) }

// KillUnit permanently fails a deploy unit: its agent stops, its machine's
// uplink is unplugged, and every shard replica or coord store colocated on
// it crashes. The owning shard's scheduler must notice the silence and
// drain the unit's volumes onto survivors.
func (f *Fleet) KillUnit(unitID string) {
	u := f.Topo.UnitByID[unitID]
	if u == nil || f.deadUnits[unitID] {
		return
	}
	f.deadUnits[unitID] = true
	f.Agents[u.Index].stop()
	for k := range f.Shards {
		for i, m := range f.Shards[k] {
			if f.Cfg.replicaUnit(k, i) == u.Index {
				f.Stores[k][i].Stop()
				m.crash()
			}
		}
	}
	// Unplug on the partition that owns the machine: local sends drop at
	// the source, fabric traffic drops against this state on either side.
	f.unitPart(u.Index).net.IsolateMachine(unitMachine(unitID))
	if f.rec != nil {
		f.rec.Instant("fleet", "unit-killed", "fleet", obs.L("unit", unitID))
	}
}

// FailDisk injects a single-disk failure: the unit's agent reports it dead
// on its next heartbeat and the owning shard's scheduler repairs around it.
func (f *Fleet) FailDisk(diskID string) {
	if u := f.Topo.UnitOfDisk(diskID); u != nil {
		f.Agents[u.Index].failDisk(diskID)
	}
}

// DrainDisk marks a disk for graceful drain: the scheduler moves fragments
// off it with drop tasks, after which it can be pulled.
func (f *Fleet) DrainDisk(diskID string) {
	if u := f.Topo.UnitOfDisk(diskID); u != nil {
		f.Agents[u.Index].drainDisk(diskID)
	}
}

// adminCall calls method on shard's leader from the admin node. All state
// it touches (adminBelieved, the retry timer) lives on the control
// partition.
func (f *Fleet) adminCall(shard int, method string, args any, attempts int, done func(res any, err error)) {
	f.leaderCall(f.admin, f.Sched, f.adminBelieved, f.adminCall, shard, method, args, attempts, done)
}

// leaderCall is the control plane's one rotate-and-retry loop (adminCall
// and ShardMaster.callShard both run it): call shard's believed-leader
// replica, rotate the belief and retry on timeout or NotLeader, retry in
// place on Busy. rpc, sched and believed belong to the caller's partition;
// replica names are static topology. A retry re-enters the caller through
// again, so a check the caller makes per attempt (callShard's down test)
// keeps running per attempt.
func (f *Fleet) leaderCall(rpc *simnet.RPCNode, sched *simtime.Scheduler, believed []int,
	again func(shard int, method string, args any, attempts int, done func(res any, err error)),
	shard int, method string, args any, attempts int, done func(res any, err error)) {
	retry := func(err error) {
		if attempts <= 0 {
			done(nil, err)
			return
		}
		sched.After(500*time.Millisecond, func() {
			again(shard, method, args, attempts-1, done)
		})
	}
	names := f.replicaNames[shard]
	idx := believed[shard] % len(names)
	rotate := func() {
		if believed[shard] == idx {
			believed[shard] = (idx + 1) % len(names)
		}
	}
	rpc.Call(names[idx], method, args, 256, f.Cfg.RPCTimeout, func(res any, err error) {
		if err != nil {
			rotate()
			retry(err)
			return
		}
		sr := res.(shardReplier).common()
		switch {
		case sr.OK:
			done(res, nil)
		case sr.NotLeader:
			rotate()
			retry(fmt.Errorf("fleet: %s on shard %d: not leader", method, shard))
		case sr.Busy:
			retry(fmt.Errorf("fleet: %s on shard %d: busy", method, shard))
		default:
			done(nil, fmt.Errorf("fleet: %s on shard %d: %s", method, shard, sr.Err))
		}
	})
}

// MoveSlot migrates a volume hash slot to shard dst through the full
// freeze -> handoff -> install -> drop -> epoch-bump chain, then
// broadcasts the new map to every shard leader. done (optional) fires when
// the new epoch is installed everywhere reachable.
func (f *Fleet) MoveSlot(slot, dst int, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	if slot < 0 || slot >= NumSlots || dst < 0 || dst >= f.Cfg.Shards {
		done(fmt.Errorf("fleet: bad slot move %d -> shard %d", slot, dst))
		return
	}
	src := f.authMap.Slots[slot]
	if src == dst {
		if _, pending := f.pendingMoves[slot]; pending {
			// A previous attempt got as far as the epoch bump but its
			// broadcast was interrupted: re-broadcast before declaring done.
			f.broadcastMap(f.authMap, func(err error) {
				if err == nil {
					delete(f.pendingMoves, slot)
				}
				done(err)
			})
			return
		}
		done(nil)
		return
	}
	f.pendingMoves[slot] = dst
	const tries = 8
	f.adminCall(src, "FreezeSlot", FreezeSlotArgs{Slot: slot}, tries, func(_ any, err error) {
		if err != nil {
			done(err)
			return
		}
		f.adminCall(src, "Handoff", HandoffArgs{Slot: slot}, tries, func(res any, err error) {
			if err != nil {
				done(err)
				return
			}
			vols := res.(HandoffReply).Vols
			f.adminCall(dst, "InstallSlot", InstallSlotArgs{Slot: slot, Vols: vols}, tries, func(_ any, err error) {
				if err != nil {
					done(err)
					return
				}
				f.adminCall(src, "DropSlot", DropSlotArgs{Slot: slot}, tries, func(_ any, err error) {
					if err != nil {
						done(err)
						return
					}
					next := f.authMap.Clone()
					next.Epoch++
					next.Slots[slot] = dst
					f.authMap = next
					f.broadcastMap(next, func(err error) {
						if err == nil {
							delete(f.pendingMoves, slot)
						}
						done(err)
					})
				})
			})
		})
	})
}

// RedriveMoves re-drives every interrupted slot migration to completion,
// sequentially in slot order, then calls done. The whole chain is
// idempotent against partial progress — FreezeSlot re-freezes (durably),
// Handoff re-reads survivors, InstallSlot dedups already-committed records,
// DropSlot no-ops on an already-empty slot — so re-running it from the top
// is always safe. done receives the first error (nil when every pending
// move completed).
func (f *Fleet) RedriveMoves(done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	slots := make([]int, 0, len(f.pendingMoves))
	for s := range f.pendingMoves {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	if len(slots) == 0 {
		done(nil)
		return
	}
	if f.Cfg.InjectSkipRedrive {
		// The planted bug: declare the moves complete by bumping the epoch
		// and broadcasting, without re-driving the chain. Records still on
		// the source shard become unreachable (the map routes their slot to
		// a shard that never installed them) — the no-lost-volume model
		// check catches this.
		next := f.authMap.Clone()
		next.Epoch++
		for _, s := range slots {
			next.Slots[s] = f.pendingMoves[s]
			delete(f.pendingMoves, s)
		}
		f.authMap = next
		f.broadcastMap(next, done)
		return
	}
	dsts := make([]int, len(slots))
	for i, s := range slots {
		dsts[i] = f.pendingMoves[s]
	}
	var drive func(i int)
	drive = func(i int) {
		if i == len(slots) {
			done(nil)
			return
		}
		f.MoveSlot(slots[i], dsts[i], func(err error) {
			if err != nil {
				done(err)
				return
			}
			drive(i + 1)
		})
	}
	drive(0)
}

// broadcastMap installs a new map epoch on every shard leader.
func (f *Fleet) broadcastMap(m *ShardMap, done func(error)) {
	remaining := f.Cfg.Shards
	var firstErr error
	for k := 0; k < f.Cfg.Shards; k++ {
		f.adminCall(k, "InstallMap", InstallMapArgs{Map: m.Clone()}, 8, func(_ any, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			remaining--
			if remaining == 0 {
				done(firstErr)
			}
		})
	}
}
