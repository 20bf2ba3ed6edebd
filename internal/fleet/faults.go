package fleet

import (
	"sort"

	"ustore/internal/obs"
)

// Transient fault verbs for the fleet control plane. Unlike KillUnit (a
// permanent loss the scheduler must drain around), these model the gray
// zone real metadata services live in: a shard replica process crashes and
// later restarts from its durable /vol /exp /map /frozen state, or the
// network between two deploy units tears and later heals.
//
// Every verb must be applied at quiescence (between Settle calls): they
// mutate component state and the network's fault table, which no event
// may see change mid-handler. The chaos fault executor guarantees this by
// construction.

// CrashReplica crash-stops replica i of shard k: its coord store and paxos
// node go silent, its RPC endpoint drops traffic, its election session
// lapses (so the group elects a survivor after the TTL), and any queued ops
// flush. A no-op if the replica is already down or its unit was killed.
func (f *Fleet) CrashReplica(k, i int) {
	if k < 0 || k >= f.Cfg.Shards || i < 0 || i >= ShardReplicas {
		return
	}
	m := f.Shards[k][i]
	if m.down || f.deadUnits[unitName(f.ReplicaUnit(k, i))] {
		return
	}
	f.Stores[k][i].Stop()
	m.crash()
	if m.rec != nil {
		m.rec.Instant("fleet", "replica-crash", "fleet", obs.L("replica", m.name))
	}
}

// RestartReplica restarts a crashed replica: the coord store and paxos node
// resume (catching up the chosen log from peers' heartbeats), leader soft
// state stays discarded until a future election rebuilds it from the
// replicated tree, and the replica campaigns again under a fresh
// incarnation-stamped election session. A no-op unless the replica is down,
// and never revives a killed unit's replica.
func (f *Fleet) RestartReplica(k, i int) {
	if k < 0 || k >= f.Cfg.Shards || i < 0 || i >= ShardReplicas {
		return
	}
	m := f.Shards[k][i]
	if !m.down || f.deadUnits[unitName(f.ReplicaUnit(k, i))] {
		return
	}
	f.Stores[k][i].Resume()
	m.restart()
	if m.rec != nil {
		m.rec.Instant("fleet", "replica-restart", "fleet", obs.L("replica", m.name))
	}
}

// PartitionUnits cuts the network between two deploy units in both
// directions: shard-replica paxos traffic, cross-unit agent heartbeats, and
// anything else flowing between the two machines drops. Traffic to third
// units and to the control plane (routers, admin) is unaffected — use
// IsolateUnit for a full uplink loss.
func (f *Fleet) PartitionUnits(a, b int) {
	if a == b || a < 0 || b < 0 || a >= f.Cfg.Units || b >= f.Cfg.Units {
		return
	}
	f.Net.CutMachines(unitMachine(unitName(a)), unitMachine(unitName(b)))
	if f.rec != nil {
		f.rec.Instant("fleet", "units-partitioned", "fleet",
			obs.L("a", unitName(a)), obs.L("b", unitName(b)))
	}
}

// HealPartition restores the link a PartitionUnits cut.
func (f *Fleet) HealPartition(a, b int) {
	if a == b || a < 0 || b < 0 || a >= f.Cfg.Units || b >= f.Cfg.Units {
		return
	}
	f.Net.HealMachines(unitMachine(unitName(a)), unitMachine(unitName(b)))
	if f.rec != nil {
		f.rec.Instant("fleet", "units-healed", "fleet",
			obs.L("a", unitName(a)), obs.L("b", unitName(b)))
	}
}

// IsolateUnit unplugs a deploy unit's uplink without killing its processes:
// every message to or from the unit's machine drops until RejoinUnit. The
// partitioned replicas keep running — a partitioned believed leader still
// answers its own election pings locally, which is exactly the case the
// router's rotation guard must survive.
func (f *Fleet) IsolateUnit(u int) {
	if u < 0 || u >= f.Cfg.Units {
		return
	}
	f.Net.IsolateMachine(unitMachine(unitName(u)))
	if f.rec != nil {
		f.rec.Instant("fleet", "unit-isolated", "fleet", obs.L("unit", unitName(u)))
	}
}

// RejoinUnit restores an isolated unit's uplink.
func (f *Fleet) RejoinUnit(u int) {
	if u < 0 || u >= f.Cfg.Units || f.deadUnits[unitName(u)] {
		return
	}
	f.Net.RejoinMachine(unitMachine(unitName(u)))
	if f.rec != nil {
		f.rec.Instant("fleet", "unit-rejoined", "fleet", obs.L("unit", unitName(u)))
	}
}

// ReplicaUnit returns the deploy unit replica i of shard k runs on.
func (f *Fleet) ReplicaUnit(k, i int) int { return ReplicaUnit(f.Cfg.Units, k, i) }

// PendingMoves returns the slot migrations started but not yet completed
// (slot -> destination shard), sorted by slot.
func (f *Fleet) PendingMoves() [][2]int {
	slots := make([]int, 0, len(f.pendingMoves))
	for s := range f.pendingMoves {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	out := make([][2]int, len(slots))
	for i, s := range slots {
		out[i] = [2]int{s, f.pendingMoves[s]}
	}
	return out
}
