package chaos

// Fleet fault schedules: seeded, deterministic sequences of transient
// control-plane faults — shard-replica crash/restart cycles, inter-unit
// partitions, leader isolations, and schedule-driven slot migrations timed
// so faults land mid-chain. A schedule is a pure function of FleetOptions
// (never of live fleet state), so a truncated prefix re-runs identically —
// the property MinimizeFleet's bisection rests on. Faults that need live
// state ("the current leader of shard k") carry a symbolic target and
// resolve at apply time, which happens at engine quiescence where state is
// deterministic at any worker count.

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"ustore/internal/fleet"
)

// FleetFaultKind enumerates fleet fault verbs.
type FleetFaultKind int

// Fleet fault kinds.
const (
	// FFCrashReplica crash-stops replica Replica of shard Shard
	// (Replica == -1: whoever leads at apply time).
	FFCrashReplica FleetFaultKind = iota + 1
	// FFRestartReplicas restarts every currently-crashed replica of shard
	// Shard.
	FFRestartReplicas
	// FFPartitionUnits cuts the network between units A and B.
	FFPartitionUnits
	// FFHealUnits heals the cut between units A and B.
	FFHealUnits
	// FFIsolateLeader unplugs the uplink of the unit hosting shard Shard's
	// current leader (resolved at apply time).
	FFIsolateLeader
	// FFRejoinUnits restores every currently-isolated unit's uplink.
	FFRejoinUnits
	// FFMoveSlot starts migrating slot Slot to shard Dst — co-timed faults
	// land mid freeze→handoff→install→drop chain.
	FFMoveSlot
)

// FleetFault is one scheduled fleet fault. At is relative to the fault
// phase start, quantized to the executor's settle step.
type FleetFault struct {
	At      time.Duration
	Kind    FleetFaultKind
	Shard   int
	Replica int // -1 = current leader
	A, B    int // unit indices (partitions)
	Slot    int
	Dst     int
}

// String renders the fault for logs and minimized-schedule output.
func (f FleetFault) String() string {
	at := f.At.Seconds()
	switch f.Kind {
	case FFCrashReplica:
		who := fmt.Sprintf("replica %d", f.Replica)
		if f.Replica < 0 {
			who = "leader"
		}
		return fmt.Sprintf("%4.0fs crash shard %d %s", at, f.Shard, who)
	case FFRestartReplicas:
		return fmt.Sprintf("%4.0fs restart shard %d crashed replicas", at, f.Shard)
	case FFPartitionUnits:
		return fmt.Sprintf("%4.0fs partition u%03d<->u%03d", at, f.A, f.B)
	case FFHealUnits:
		return fmt.Sprintf("%4.0fs heal u%03d<->u%03d", at, f.A, f.B)
	case FFIsolateLeader:
		return fmt.Sprintf("%4.0fs isolate shard %d leader's unit", at, f.Shard)
	case FFRejoinUnits:
		return fmt.Sprintf("%4.0fs rejoin isolated units", at)
	case FFMoveSlot:
		return fmt.Sprintf("%4.0fs move slot %d -> shard %d", at, f.Slot, f.Dst)
	default:
		return fmt.Sprintf("%4.0fs unknown fault %d", at, int(f.Kind))
	}
}

// fleetFaultStep is the executor's settle quantum; every fault time is a
// multiple of it.
const fleetFaultStep = 5 * time.Second

// genFleetSchedule derives the fault schedule from the options alone. The
// shape, in At order:
//
//   - t=0: the first slot move co-timed with a crash of the source shard's
//     leader — the move's FreezeSlot lands on a dead leader, the chain
//     exhausts its retries, and the migration is left for RedriveMoves.
//     Putting the straddle first keeps the minimizer's violating prefix
//     short when the redrive path is the bug.
//   - remaining crash/restart cycles on random shards (half target the
//     leader, half a random replica), each healed 15–25s later;
//   - partition windows: the first straddles another slot move by isolating
//     the source leader's unit, the rest cut a random shard group's first
//     two replica units; each heals 20–30s later;
//   - remaining slot moves, unstraddled (they should complete cleanly).
//
// Slot moves need Shards >= 2 and distinct slots (so each slot's owner at
// move time is still the initial-map owner, slot mod Shards — schedule
// generation must never consult live state).
func genFleetSchedule(o FleetOptions) []FleetFault {
	o = o.withDefaults()
	if o.ReplicaCrashes == 0 && o.Partitions == 0 && o.SlotMoves == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(o.Seed*1664525 + 1013904223))
	q := func(d time.Duration) time.Duration {
		return d / fleetFaultStep * fleetFaultStep
	}
	window := q(o.FaultWindow)
	if window < fleetFaultStep {
		window = fleetFaultStep
	}
	var out []FleetFault
	t := time.Duration(0)
	advance := func(min, spread time.Duration) {
		t += q(min + time.Duration(rng.Int63n(int64(spread))))
		if t > window {
			t = window
		}
	}

	crashes, parts, moves := o.ReplicaCrashes, o.Partitions, o.SlotMoves
	if o.Shards < 2 {
		moves = 0
	}
	usedSlots := map[int]bool{}
	pickSlot := func() (slot, src, dst int) {
		for {
			slot = rng.Intn(fleet.NumSlots)
			if !usedSlots[slot] {
				usedSlots[slot] = true
				break
			}
		}
		src = slot % o.Shards
		dst = (src + 1 + rng.Intn(o.Shards-1)) % o.Shards
		return
	}

	// Straddle 1: move + crash of the source leader, co-timed at t=0.
	if moves > 0 && crashes > 0 {
		slot, src, dst := pickSlot()
		out = append(out,
			FleetFault{At: 0, Kind: FFMoveSlot, Slot: slot, Dst: dst},
			FleetFault{At: 0, Kind: FFCrashReplica, Shard: src, Replica: -1},
			FleetFault{At: q(20 * time.Second), Kind: FFRestartReplicas, Shard: src},
		)
		moves--
		crashes--
		t = q(20 * time.Second)
	}

	for i := 0; i < crashes; i++ {
		advance(15*time.Second, 20*time.Second)
		k := rng.Intn(o.Shards)
		replica := -1
		if rng.Intn(2) == 1 {
			replica = rng.Intn(fleet.ShardReplicas)
		}
		out = append(out,
			FleetFault{At: t, Kind: FFCrashReplica, Shard: k, Replica: replica},
			FleetFault{At: t + q(15*time.Second+time.Duration(rng.Int63n(int64(10*time.Second)))),
				Kind: FFRestartReplicas, Shard: k},
		)
	}

	for j := 0; j < parts; j++ {
		advance(15*time.Second, 20*time.Second)
		heal := t + q(20*time.Second+time.Duration(rng.Int63n(int64(10*time.Second))))
		if j == 0 && moves > 0 {
			// Straddle 2: a move interrupted by partitioning (isolating) the
			// source shard's leader unit mid-chain.
			slot, src, dst := pickSlot()
			out = append(out,
				FleetFault{At: t, Kind: FFMoveSlot, Slot: slot, Dst: dst},
				FleetFault{At: t, Kind: FFIsolateLeader, Shard: src},
				FleetFault{At: heal, Kind: FFRejoinUnits},
			)
			moves--
			continue
		}
		k := rng.Intn(o.Shards)
		a, b := fleet.ReplicaUnit(o.Units, k, 0), fleet.ReplicaUnit(o.Units, k, 1)
		if a == b {
			continue
		}
		out = append(out,
			FleetFault{At: t, Kind: FFPartitionUnits, A: a, B: b},
			FleetFault{At: heal, Kind: FFHealUnits, A: a, B: b},
		)
	}

	for m := 0; m < moves; m++ {
		advance(10*time.Second, 15*time.Second)
		slot, _, dst := pickSlot()
		out = append(out, FleetFault{At: t, Kind: FFMoveSlot, Slot: slot, Dst: dst})
	}

	// Order by At, stable in generation order: the executor applies
	// same-instant faults in schedule order (a move before its co-timed
	// interrupter).
	slices.SortStableFunc(out, func(a, b FleetFault) int { return cmp.Compare(a.At, b.At) })
	return out
}

// fleetFaultState tracks open faults so the recovery phase (and therefore
// any truncated minimizer prefix) can close every window it finds open.
type fleetFaultState struct {
	f *fleet.Fleet
	// crashed holds pair(shard, replica) keys, partitioned pair(a, b) unit
	// keys, so their sorted keys come in (first, second) order.
	crashed     map[int]bool
	partitioned map[int]bool
	isolated    map[int]bool
}

// pair packs two small non-negative ints into one ordered map key.
func pair(a, b int) int { return a<<16 | b }

// unpair is pair's inverse.
func unpair(k int) (int, int) { return k >> 16, k & 0xffff }

func newFleetFaultState(f *fleet.Fleet) *fleetFaultState {
	return &fleetFaultState{
		f:           f,
		crashed:     make(map[int]bool),
		partitioned: make(map[int]bool),
		isolated:    make(map[int]bool),
	}
}

// apply executes one fault against the fleet (call at quiescence). It
// returns a human-readable description of what actually happened, with
// symbolic targets resolved.
func (s *fleetFaultState) apply(ft FleetFault, onMove func(slot, dst int)) string {
	f := s.f
	switch ft.Kind {
	case FFCrashReplica:
		i := ft.Replica
		if i < 0 {
			if i = f.LeaderReplica(ft.Shard); i < 0 {
				i = 0 // leaderless already: crash the first live replica
			}
		}
		f.CrashReplica(ft.Shard, i)
		s.crashed[pair(ft.Shard, i)] = true
		return fmt.Sprintf("crashed shard %d replica %d (unit u%03d)",
			ft.Shard, i, f.ReplicaUnit(ft.Shard, i))
	case FFRestartReplicas:
		n := 0
		for _, key := range sortedKeys(s.crashed, cmp.Compare[int]) {
			shard, i := unpair(key)
			if shard != ft.Shard {
				continue
			}
			f.RestartReplica(shard, i)
			delete(s.crashed, key)
			n++
		}
		return fmt.Sprintf("restarted %d crashed replicas of shard %d", n, ft.Shard)
	case FFPartitionUnits:
		f.PartitionUnits(ft.A, ft.B)
		s.partitioned[pair(ft.A, ft.B)] = true
		return fmt.Sprintf("partitioned u%03d<->u%03d", ft.A, ft.B)
	case FFHealUnits:
		f.HealPartition(ft.A, ft.B)
		delete(s.partitioned, pair(ft.A, ft.B))
		return fmt.Sprintf("healed u%03d<->u%03d", ft.A, ft.B)
	case FFIsolateLeader:
		i := f.LeaderReplica(ft.Shard)
		if i < 0 {
			i = 0
		}
		u := f.ReplicaUnit(ft.Shard, i)
		f.IsolateUnit(u)
		s.isolated[u] = true
		return fmt.Sprintf("isolated u%03d (shard %d replica %d)", u, ft.Shard, i)
	case FFRejoinUnits:
		n := 0
		for _, u := range sortedKeys(s.isolated, cmp.Compare[int]) {
			f.RejoinUnit(u)
			delete(s.isolated, u)
			n++
		}
		return fmt.Sprintf("rejoined %d isolated units", n)
	case FFMoveSlot:
		onMove(ft.Slot, ft.Dst)
		return fmt.Sprintf("started move of slot %d -> shard %d", ft.Slot, ft.Dst)
	default:
		return fmt.Sprintf("unknown fault kind %d", int(ft.Kind))
	}
}

// healAll closes every open fault window — heals partitions, rejoins
// isolated units, restarts crashed replicas, each in sorted order.
func (s *fleetFaultState) healAll() (healed, rejoined, restarted int) {
	for _, key := range sortedKeys(s.partitioned, cmp.Compare[int]) {
		s.f.HealPartition(unpair(key))
		delete(s.partitioned, key)
		healed++
	}
	for _, u := range sortedKeys(s.isolated, cmp.Compare[int]) {
		s.f.RejoinUnit(u)
		delete(s.isolated, u)
		rejoined++
	}
	for _, key := range sortedKeys(s.crashed, cmp.Compare[int]) {
		s.f.RestartReplica(unpair(key))
		delete(s.crashed, key)
		restarted++
	}
	return
}

// MinimizeFleet generates the seeded fleet fault schedule, runs it, and —
// if the run violated — bisects for the shortest schedule prefix that
// still violates, with up to parallel speculative probes per round (the
// same bisectPrefix search MinimizeParallel runs for cluster schedules).
// Truncated prefixes are well-formed because the recovery phase heals every
// fault window still open when the prefix ends. Probe runs never feed
// o.Recorder. If the full run is clean it returns (nil, nil, full, nil).
func MinimizeFleet(o FleetOptions, parallel int) (schedule []FleetFault, minimized, full *FleetReport, err error) {
	o = o.withDefaults()
	all := genFleetSchedule(o)
	full, err = RunFleetSchedule(o, all)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(full.Violations) == 0 {
		return nil, nil, full, nil
	}
	oProbe := o
	oProbe.Recorder = nil
	k, minimized, err := bisectPrefix(len(all), parallel, full,
		func(k int) (*FleetReport, error) { return RunFleetSchedule(oProbe, all[:k]) },
		func(r *FleetReport) bool { return len(r.Violations) > 0 })
	if err != nil {
		return nil, nil, nil, fmt.Errorf("chaos: minimizing fleet: %w", err)
	}
	return all[:k], minimized, full, nil
}
