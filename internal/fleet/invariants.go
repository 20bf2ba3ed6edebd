package fleet

import (
	"fmt"
	"slices"
	"sort"
)

// Invariant validators. These inspect leader state directly (test/chaos
// introspection, not part of the simulated data path), so they see exactly
// what the shard state machines believe.

// leaders returns the current leader of every shard, erroring on a
// leaderless group (callers Settle long enough for elections first).
func (f *Fleet) leaders() ([]*ShardMaster, error) {
	out := make([]*ShardMaster, f.Cfg.Shards)
	for k := 0; k < f.Cfg.Shards; k++ {
		m := f.Leader(k)
		if m == nil {
			return nil, fmt.Errorf("fleet: shard %d has no leader", k)
		}
		out[k] = m
	}
	return out, nil
}

// ValidateSpread checks the placement invariant: no volume has two
// fragments in the same failure domain at the configured spread level, and
// no fragment sits on a disk of a unit the fleet killed (i.e. repair has
// fully drained dead units). It reports the violation of the lowest shard's
// smallest volume ID.
func (f *Fleet) ValidateSpread() error {
	ms, err := f.leaders()
	if err != nil {
		return err
	}
	for _, m := range ms {
		var first string
		var firstErr error
		for id, rec := range m.vols {
			if firstErr != nil && id > first {
				continue
			}
			if err := f.spreadViolation(id, rec); err != nil {
				first, firstErr = id, err
			}
		}
		if firstErr != nil {
			return firstErr
		}
	}
	return nil
}

// spreadViolation returns the first placement violation among a record's
// fragments, in disk order, or nil.
func (f *Fleet) spreadViolation(id string, rec VolRecord) error {
	for i, d := range rec.Disks {
		di := f.Topo.Disks[d]
		if di == nil {
			return fmt.Errorf("fleet: volume %s references unknown disk %s", id, d)
		}
		if f.deadUnits[di.Loc.Unit] {
			return fmt.Errorf("fleet: volume %s fragment still on dead unit %s (disk %s)",
				id, di.Loc.Unit, d)
		}
		for _, prev := range rec.Disks[:i] {
			if f.Topo.Disks[prev].Domain == di.Domain {
				return fmt.Errorf("fleet: volume %s has two fragments in failure domain %s (%s and %s)",
					id, di.Domain, prev, d)
			}
		}
	}
	return nil
}

// ValidateShardMap checks map consistency: every live shard leader has
// installed the authoritative epoch with identical slot ownership.
func (f *Fleet) ValidateShardMap() error {
	ms, err := f.leaders()
	if err != nil {
		return err
	}
	for _, m := range ms {
		if m.map_.Epoch != f.authMap.Epoch {
			return fmt.Errorf("fleet: shard %d leader %s at map epoch %d, want %d",
				m.shard, m.name, m.map_.Epoch, f.authMap.Epoch)
		}
		if m.map_.Slots != f.authMap.Slots {
			return fmt.Errorf("fleet: shard %d leader %s slot table diverges from authoritative map",
				m.shard, m.name)
		}
	}
	return nil
}

// ValidateCapacity checks the capacity ledger: each leader's per-disk
// usage equals the sum of its volume records plus export-ledger entries on
// that disk, nothing exceeds disk capacity, the placement index's derived
// state agrees with its rows (placement.Index.Validate), the foreign set
// names exactly the volumes with a fragment on a foreign disk, and every
// such fragment is backed by an export entry at the disk's owning shard (no
// cross-shard leak or double-free).
func (f *Fleet) ValidateCapacity() error {
	ms, err := f.leaders()
	if err != nil {
		return err
	}
	var want []int64 // bytes the records charge to each owned disk, by row
	var foreign []string
	for _, m := range ms {
		want = append(want[:0], make([]int64, m.ix.Len())...)
		foreign = foreign[:0]
		for id, rec := range m.vols {
			if m.charge(want, rec) {
				foreign = append(foreign, id)
			}
		}
		for _, rec := range m.exports {
			m.charge(want, rec)
		}
		// Every owned disk has a row, in disk-ID order.
		for r := range want {
			d, used := m.ix.ID(r), m.ix.Used(r)
			if used != want[r] {
				return fmt.Errorf("fleet: shard %d disk %s ledger says %d bytes, records say %d",
					m.shard, d, used, want[r])
			}
			if c := m.ix.Capacity(r); used > c {
				return fmt.Errorf("fleet: disk %s over capacity: %d > %d", d, used, c)
			}
		}
		// What placement reads is maintained incrementally; hold it to a
		// recomputation from the rows.
		if err := m.ix.Validate(); err != nil {
			return fmt.Errorf("fleet: shard %d: %w", m.shard, err)
		}
		if err := m.validateForeign(foreign); err != nil {
			return err
		}
		// Cross-shard: foreign fragments must be export-backed.
		for _, id := range foreign {
			for _, d := range m.vols[id].Disks {
				if m.ownsDisk(d) {
					continue
				}
				u := f.Topo.UnitOfDisk(d)
				if u == nil {
					return fmt.Errorf("fleet: volume %s on unknown disk %s", id, d)
				}
				exp, ok := ms[u.Shard].exports[id]
				if !ok {
					return fmt.Errorf("fleet: volume %s fragment on shard %d disk %s has no export entry",
						id, u.Shard, d)
				}
				if !slices.Contains(exp.Disks, d) {
					return fmt.Errorf("fleet: volume %s export entry at shard %d omits disk %s",
						id, u.Shard, d)
				}
			}
		}
	}
	return nil
}

// charge adds a record's fragments on owned disks to want, by index row,
// and reports whether the record has a fragment on a disk the shard does
// not own.
func (m *ShardMaster) charge(want []int64, rec VolRecord) (foreign bool) {
	for _, d := range rec.Disks {
		if r, owned := m.ix.Row(d); owned {
			want[r] += rec.Size
		} else {
			foreign = true
		}
	}
	return foreign
}

// validateForeign holds the foreign set to want, the volumes whose records
// have a fragment on a foreign disk, and names the smallest volume ID where
// they disagree.
func (m *ShardMaster) validateForeign(want []string) error {
	var first, why string
	note := func(id, what string) {
		if why == "" || id < first {
			first, why = id, what
		}
	}
	held := 0
	for _, id := range want {
		if _, ok := m.foreign[id]; ok {
			held++
		} else {
			note(id, "has a fragment on a foreign disk but is not in the foreign set")
		}
	}
	if len(m.foreign) > held {
		for id := range m.foreign {
			if _, ok := m.vols[id]; !ok {
				note(id, "is in the foreign set but has no record")
			} else if !slices.Contains(want, id) {
				note(id, "is in the foreign set but has no foreign fragment")
			}
		}
	}
	if why != "" {
		return fmt.Errorf("fleet: shard %d volume %s %s", m.shard, first, why)
	}
	return nil
}

// LeaderlessShard returns the lowest shard index currently without a
// leader, or -1 when every shard has one. Settle loops use it to name the
// group still electing when they time out.
func (f *Fleet) LeaderlessShard() int {
	for k := 0; k < f.Cfg.Shards; k++ {
		if f.Leader(k) == nil {
			return k
		}
	}
	return -1
}

// VolumeHolders maps every volume ID to the sorted shards whose leaders
// hold a live record for it. The fleet-level reference model checks this
// against the ledger of client-acknowledged allocations: a live volume with
// no holder was lost, one with two holders was duplicated by a botched
// migration. Errors while any shard is leaderless (holders would be
// invisible, not absent).
func (f *Fleet) VolumeHolders() (map[string][]int, error) {
	ms, err := f.leaders()
	if err != nil {
		return nil, err
	}
	holders := make(map[string][]int)
	for _, m := range ms {
		for id := range m.vols {
			holders[id] = append(holders[id], m.shard)
		}
	}
	for _, ks := range holders {
		sort.Ints(ks)
	}
	return holders, nil
}

// DrainBlocker names what still blocks a unit's drain: the first live
// record (by shard, then kind, then volume ID) whose fragments reference
// the unit's disks, or a leaderless shard hiding state. Returns "" once the
// unit is drained: no live metadata references its disks (the unit-loss
// recovery end state).
func (f *Fleet) DrainBlocker(unitID string) string {
	for k := 0; k < f.Cfg.Shards; k++ {
		m := f.Leader(k)
		if m == nil {
			return fmt.Sprintf("shard %d leaderless", k)
		}
		for _, recs := range []struct {
			kind string
			m    map[string]VolRecord
		}{{"volume", m.vols}, {"export", m.exports}} {
			var first, disk string
			for id, rec := range recs.m {
				if disk != "" && id > first {
					continue
				}
				for _, d := range rec.Disks {
					if di := f.Topo.Disks[d]; di != nil && di.Loc.Unit == unitID {
						first, disk = id, d
						break
					}
				}
			}
			if disk != "" {
				return fmt.Sprintf("shard %d %s %s still on %s (disk %s)",
					k, recs.kind, first, unitID, disk)
			}
		}
	}
	return ""
}
