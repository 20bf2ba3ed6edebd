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
// There is one execution path: every fleet runs on one scheduler, a
// simtime.Engine, with a simnet.Fabric lane per deploy unit plus a control
// lane for the admin plane and client routers (DESIGN.md §14). A lane is a
// Network of its own — record pools, counters and a random stream seeded
// as a partition of its own was — so a unit's processes see the events they
// saw when each unit had a partition, in the same order. The lanes share one
// machine fault table, which the fault verbs write through the control
// lane's Network, and one recorder, Config.Recorder. The fabric charges
// every cross-unit hop at least crossUnitLatency and delivers it at the next
// window edge, and no component reads another lane's state mid-run: the
// admin plane and shard masters discover a foreign shard's leader the way
// clients do, by calling the believed replica and rotating on failure. A run
// with the same seed is byte-identical at any -test.cpu.
package fleet

import (
	"fmt"
	"sort"
	"time"

	"ustore/internal/coord"
	"ustore/internal/obs"
	"ustore/internal/paxos"
	"ustore/internal/placement"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// Config shapes a simulated fleet. Only what two runs set to two values is
// a field; the unit shape, placement rule and control-plane timings are the
// constants below (DESIGN.md §17). Zero values pick defaults sized for a
// small test fleet; production-scale runs set Units/Shards explicitly.
type Config struct {
	// Units is the number of deploy units (default 8); at least
	// MinUnits(Shards).
	Units int
	// Shards is the number of metadata shards (default 1).
	Shards int

	// RetryJitter enables full-jitter exponential backoff on router retries
	// (default off keeps the legacy fixed delays, which the checked-in
	// byte-stability goldens were recorded under). Chaos runs turn it on:
	// under partitions, synchronized fixed-delay retries from many clients
	// arrive as lockstep waves at a recovering leader.
	RetryJitter bool

	// Seed seeds the simulation (default 1).
	Seed int64
	// Recorder receives fleet metrics and traces (nil = no recording).
	Recorder *obs.Recorder

	// EngineWorkers is accepted and ignored: the engine runs every window
	// on one goroutine. The perf/ benchmark still sets it.
	EngineWorkers int
}

// The fleet's unit shape and placement rule.
const (
	// hostsPerUnit is servers per unit.
	hostsPerUnit = 4
	// disksPerHost is disks per server.
	disksPerHost = 16
	// hubFanIn is disks per hub (§III: disks attach to hosts through hub
	// groups).
	hubFanIn = 4
	// diskCapacity is bytes per disk (a 3TB archival drive).
	diskCapacity = 3e12
	// maxSpinningPerUnit is the unit power budget in spinning disks: half
	// the unit's disks.
	maxSpinningPerUnit = hostsPerUnit * disksPerHost / 2

	// ShardReplicas is the Paxos group size per shard.
	ShardReplicas = 3
	// replicas is fragments placed per volume.
	replicas = 3
	// spreadLevel is the failure domain no two fragments may share.
	spreadLevel = placement.LevelUnit
)

// The control plane's timings, stretched past a single unit's so 48 shard
// groups stay inside the event budget.
const (
	// heartbeatInterval is the unit agent report period.
	heartbeatInterval = 5 * time.Second
	// unitDeadAfter is how many missed heartbeat intervals declare a unit
	// dead.
	unitDeadAfter = 3
	// opServiceTime is the serial CPU cost of one metadata operation on a
	// shard leader — the bottleneck shard scaling divides.
	opServiceTime = time.Millisecond
	// rpcTimeout bounds client and control RPCs.
	rpcTimeout = 3 * time.Second
	// electionTTL is the shard-leader session TTL.
	electionTTL = 10 * time.Second
	// coordSweepInterval is the coord session-expiry scan period.
	coordSweepInterval = 2 * time.Second
)

// paxosConfig is each shard group's consensus timing (1s heartbeats).
var paxosConfig = paxos.Config{
	HeartbeatInterval:   time.Second,
	ElectionTimeoutBase: 4 * time.Second,
	PhaseTimeout:        2 * time.Second,
}

// MinUnits is the smallest fleet that can place a volume on every shard:
// a shard spreads a volume's fragments over the units it owns, one per
// unit, so each shard needs as many units as a volume has fragments.
func MinUnits(shards int) int { return replicas * shards }

// ReplicaUnit places replica i of shard k on unit (k*R+i) mod units: each
// shard's replicas land on R distinct units (units >= MinUnits(shards)
// keeps distinct units per group even when shards share units), so losing
// one unit kills at most one replica of any group.
func ReplicaUnit(units, shard, replica int) int {
	return (shard*ShardReplicas + replica) % units
}

func (c Config) withDefaults() Config {
	if c.Units <= 0 {
		c.Units = 8
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
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

	// Engine runs the fleet on its one scheduler, Sched, with a lane per
	// network: lane 0 is the control plane (admin node, routers, the Settle
	// driver), whose network is Net, and lane 1+u is deploy unit u.
	Engine *simtime.Engine

	// Shards[k][i] is replica i of shard k.
	Shards [][]*ShardMaster
	// Stores[k][i] is the coord replica backing Shards[k][i].
	Stores [][]*coord.Store
	// Agents[u] is unit u's heartbeat agent.
	Agents []*Agent

	// rec is Cfg.Recorder, which every lane records into.
	rec   *obs.Recorder
	admin *simnet.RPCNode
	// nets are the lanes' networks (index = lane).
	nets []*simnet.Network
	// replicaNames[k] lists shard k's master RPC names — static topology,
	// safe to read from any lane.
	replicaNames [][]string
	// adminBelieved[k] is the control plane's believed-leader replica index
	// for shard k. The control lane does not peek other lanes' leader
	// flags mid-run, so the admin discovers leaders like clients do:
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
// the lookahead the engine's windows advance by. Every message that
// crosses a deploy-unit boundary takes at least this long.
const crossUnitLatency = time.Millisecond

// unitNet is the network of the lane deploy unit u's processes run on.
func (f *Fleet) unitNet(u int) *simnet.Network { return f.nets[1+u] }

// unitMachine is the simnet machine name every process of a unit shares.
func unitMachine(unitID string) string { return "mach-" + unitID }

// New assembles a fleet from cfg and starts its shard elections and unit
// agents. Call Settle to let the first leaders emerge before driving load.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{
		Cfg:          cfg,
		Topo:         buildTopology(cfg),
		rec:          cfg.Recorder,
		deadUnits:    make(map[string]bool),
		pendingMoves: make(map[int]int),
	}
	f.Engine = simtime.NewEngine(cfg.Seed, 1, 1, crossUnitLatency)
	f.Sched = f.Engine.Part(0)
	f.rec.BindClock(f.Sched.Now)
	fabric := simnet.NewFabric(f.Engine)
	f.nets = make([]*simnet.Network, cfg.Units+1)
	for l := range f.nets {
		f.nets[l] = fabric.Network(l)
		if f.rec != nil {
			f.nets[l].SetRecorder(f.rec)
		}
	}
	f.Net = f.nets[0]
	f.adminBelieved = make([]int, cfg.Shards)

	// Shard groups: R coord replicas + R shard masters per shard, each
	// replica pair colocated on a distinct unit's machine and built on that
	// unit's lane, so the group's paxos traffic is lane-local except for
	// cross-unit hops through the fabric.
	replicas := make([][]string, cfg.Shards)
	for k := 0; k < cfg.Shards; k++ {
		peers := make([]string, ShardReplicas)
		for i := range peers {
			peers[i] = fmt.Sprintf("s%dm%d", k, i)
		}
		var stores []*coord.Store
		var masters []*ShardMaster
		for i := 0; i < ShardReplicas; i++ {
			u := f.ReplicaUnit(k, i)
			net := f.unitNet(u)
			st := coord.NewStore(net, peers[i], peers, paxosConfig)
			st.SetSweepInterval(coordSweepInterval)
			m := newShardMaster(f, k, i, st, net)
			mach := unitMachine(unitName(u))
			net.Colocate(peers[i], mach)          // paxos node
			net.Colocate("coord:"+peers[i], mach) // coord session endpoint
			net.Colocate(m.rpcName, mach)         // shard master process
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
		net := f.unitNet(u.Index)
		a := newAgent(f, u, replicas[u.Shard], net)
		net.Colocate(a.rpc.Name(), unitMachine(u.ID))
		f.Agents = append(f.Agents, a)
		a.start()
	}

	f.admin = simnet.NewRPCNode(f.Net, "fleet-admin")
	return f
}

// Settle runs the simulation for d of virtual time.
func (f *Fleet) Settle(d time.Duration) { f.Engine.RunFor(d) }

// EventsFired is the total number of simulation events executed so far.
func (f *Fleet) EventsFired() uint64 { return f.Engine.Fired() }

// FinishObs does nothing: every lane records straight into Cfg.Recorder.
// The perf/ benchmark still calls it.
func (f *Fleet) FinishObs() {}

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
		u := f.ReplicaUnit(k, i)
		if !f.Net.MachineIsolated(unitMachine(unitName(u))) {
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
			if f.ReplicaUnit(k, i) == u.Index {
				f.Stores[k][i].Stop()
				m.crash()
			}
		}
	}
	// The lanes share one fault table: local sends drop at the source,
	// fabric traffic against this state on either side.
	f.Net.IsolateMachine(unitMachine(unitID))
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
// it touches (adminBelieved, the retry timer) lives on the control lane.
func (f *Fleet) adminCall(shard int, method string, args any, attempts int, done func(res any, err error)) {
	f.leaderCall(f.admin, f.Sched, f.adminBelieved, f.adminCall, shard, method, args, attempts, done)
}

// leaderCall is the control plane's one rotate-and-retry loop (adminCall
// and ShardMaster.callShard both run it): call shard's believed-leader
// replica, rotate the belief and retry on timeout or ErrNotLeader, retry in
// place on ErrBusy. rpc, sched and believed belong to the caller's lane;
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
		sched.FireAfter(500*time.Millisecond, func() {
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
	rpc.Call(names[idx], method, args, 256, rpcTimeout, func(res any, err error) {
		switch err {
		case nil:
			done(res, nil)
		case simnet.ErrTimeout:
			rotate()
			retry(err)
		case ErrNotLeader:
			rotate()
			retry(fmt.Errorf("fleet: %s on shard %d: not leader", method, shard))
		case ErrBusy:
			retry(fmt.Errorf("fleet: %s on shard %d: busy", method, shard))
		default:
			done(nil, fmt.Errorf("fleet: %s on shard %d: %v", method, shard, err))
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
