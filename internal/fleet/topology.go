package fleet

import (
	"fmt"

	"ustore/internal/placement"
)

// DiskInfo is one disk's static wiring in the fleet topology.
type DiskInfo struct {
	ID       string
	Loc      placement.Location
	Capacity int64
	// Domain is Loc.Domain at the fleet's configured spread level — the key
	// re-placement excludes surviving fragments by — built once here.
	Domain string
}

// UnitTopo is one deploy unit's static shape: its rack, hosts, disks, and
// the metadata shard that owns its state (unit ownership is static; only
// volume slots move between shards).
type UnitTopo struct {
	ID    string
	Rack  string
	Index int
	// Shard is the static owner of this unit's disk state.
	Shard int
	// Hosts are the unit's host names (shard replicas co-locate on them).
	Hosts []string
	// Disks lists the unit's disk IDs, sorted.
	Disks []string
	// MaxSpinning is the unit's power budget in simultaneously spinning
	// disks.
	MaxSpinning int
}

// Topology is the fleet's static hardware inventory: Units*hostsPerUnit
// hosts and Units*hostsPerUnit*disksPerHost disks, units spread round-robin
// over Racks racks, with disks grouped hubFanIn to a hub.
type Topology struct {
	// Racks is the rack count: max(2, Units/8).
	Racks    int
	Units    []*UnitTopo
	UnitByID map[string]*UnitTopo
	Disks    map[string]*DiskInfo
	// NumDisks is the fleet-wide disk count.
	NumDisks int
	// shardUnits[k] is ShardUnits(k), computed once.
	shardUnits [][]string
}

// unitName formats unit index i.
func unitName(i int) string { return fmt.Sprintf("u%03d", i) }

// buildTopology synthesizes the fleet inventory from cfg (which must have
// defaults applied).
func buildTopology(cfg Config) *Topology {
	t := &Topology{
		Racks:      max(2, cfg.Units/8),
		UnitByID:   make(map[string]*UnitTopo, cfg.Units),
		Disks:      make(map[string]*DiskInfo, cfg.Units*hostsPerUnit*disksPerHost),
		shardUnits: make([][]string, cfg.Shards),
	}
	for i := 0; i < cfg.Units; i++ {
		u := &UnitTopo{
			ID:          unitName(i),
			Rack:        fmt.Sprintf("r%02d", i%t.Racks),
			Index:       i,
			Shard:       i % cfg.Shards,
			MaxSpinning: maxSpinningPerUnit,
		}
		for h := 0; h < hostsPerUnit; h++ {
			host := fmt.Sprintf("%s/h%d", u.ID, h)
			u.Hosts = append(u.Hosts, host)
			for d := 0; d < disksPerHost; d++ {
				id := fmt.Sprintf("%s/h%d/d%02d", u.ID, h, d)
				di := &DiskInfo{
					ID:       id,
					Capacity: diskCapacity,
					Loc: placement.Location{
						Rack: u.Rack,
						Unit: u.ID,
						Hub:  fmt.Sprintf("%s/h%d/b%d", u.ID, h, d/hubFanIn),
						Host: host,
					},
				}
				di.Domain = di.Loc.Domain(spreadLevel)
				t.Disks[id] = di
				u.Disks = append(u.Disks, id)
			}
		}
		t.Units = append(t.Units, u)
		t.UnitByID[u.ID] = u
		t.shardUnits[u.Shard] = append(t.shardUnits[u.Shard], u.ID)
	}
	t.NumDisks = len(t.Disks)
	return t
}

// UnitOfDisk returns the unit topo owning a disk (nil if unknown).
func (t *Topology) UnitOfDisk(diskID string) *UnitTopo {
	d := t.Disks[diskID]
	if d == nil {
		return nil
	}
	return t.UnitByID[d.Loc.Unit]
}

// ShardUnits returns the sorted unit IDs statically owned by shard k. The
// slice is shared by every caller: range over it, do not modify it.
func (t *Topology) ShardUnits(k int) []string {
	if k < 0 || k >= len(t.shardUnits) {
		return nil
	}
	return t.shardUnits[k]
}

// newShardIndex builds the placement index a replica of shard k keeps: one
// row per disk of every unit the shard owns, empty and spun down, each unit
// limited to its MaxSpinning.
func (t *Topology) newShardIndex(k int) *placement.Index {
	var views []placement.DiskView
	limits := make(map[string]int)
	for _, uid := range t.ShardUnits(k) {
		u := t.UnitByID[uid]
		for _, d := range u.Disks {
			di := t.Disks[d]
			views = append(views, placement.DiskView{ID: d, Host: di.Loc.Host, Free: di.Capacity, Loc: di.Loc})
		}
		limits[t.Disks[u.Disks[0]].Loc.Domain(placement.LevelUnit)] = u.MaxSpinning
	}
	return placement.NewIndex(views, limits)
}
