package fleet

import (
	"fmt"
	"strconv"

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
	// unit is the unit owning the disk (UnitOfDisk).
	unit *UnitTopo
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

// diskName formats disk d of a host: host + "/d" and d in two digits.
func diskName(host string, d int) string {
	if d < 10 {
		return host + "/d0" + strconv.Itoa(d)
	}
	return host + "/d" + strconv.Itoa(d)
}

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
			Hosts:       make([]string, 0, hostsPerUnit),
			Disks:       make([]string, 0, hostsPerUnit*disksPerHost),
		}
		// Names are built per unit, host and hub, and each unit's disks
		// come from one array: a fleet boot makes one object per disk ID.
		infos := make([]DiskInfo, hostsPerUnit*disksPerHost)
		loc := placement.Location{Rack: u.Rack, Unit: u.ID}
		domain := loc.Domain(spreadLevel)
		for h := 0; h < hostsPerUnit; h++ {
			loc.Host = u.ID + "/h" + strconv.Itoa(h)
			u.Hosts = append(u.Hosts, loc.Host)
			for d := 0; d < disksPerHost; d++ {
				if d%hubFanIn == 0 {
					loc.Hub = loc.Host + "/b" + strconv.Itoa(d/hubFanIn)
				}
				di := &infos[h*disksPerHost+d]
				*di = DiskInfo{
					ID:       diskName(loc.Host, d),
					Loc:      loc,
					Capacity: diskCapacity,
					Domain:   domain,
					unit:     u,
				}
				t.Disks[di.ID] = di
				u.Disks = append(u.Disks, di.ID)
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
	if d := t.Disks[diskID]; d != nil {
		return d.unit
	}
	return nil
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
	units := t.ShardUnits(k)
	views := make([]placement.DiskView, 0, len(units)*hostsPerUnit*disksPerHost)
	limits := make(map[string]int, len(units))
	for _, uid := range units {
		u := t.UnitByID[uid]
		for _, d := range u.Disks {
			di := t.Disks[d]
			views = append(views, placement.DiskView{ID: d, Host: di.Loc.Host, Free: di.Capacity, Loc: di.Loc})
		}
		limits[t.Disks[u.Disks[0]].Loc.Domain(placement.LevelUnit)] = u.MaxSpinning
	}
	return placement.NewIndex(views, limits)
}
