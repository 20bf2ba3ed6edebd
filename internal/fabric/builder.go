package fabric

import (
	"fmt"
)

// Config parameterizes a deploy-unit fabric build.
type Config struct {
	// Hosts are the unit's host names (the paper uses 4 per unit).
	Hosts []string
	// Disks is the number of disks in the unit (16 in the prototype,
	// 64 in the cost model's production unit).
	Disks int
	// FanIn is the hub fan-in factor k (4-port hubs in the prototype).
	FanIn int
}

func (c Config) validate() error {
	if len(c.Hosts) < 2 {
		return fmt.Errorf("fabric: need at least 2 hosts, got %d", len(c.Hosts))
	}
	if c.Disks <= 0 {
		return fmt.Errorf("fabric: need at least 1 disk, got %d", c.Disks)
	}
	if c.FanIn < 2 {
		return fmt.Errorf("fabric: fan-in must be >= 2, got %d", c.FanIn)
	}
	return nil
}

// DiskID returns the canonical disk node ID for index i.
func DiskID(i int) NodeID { return NodeID(fmt.Sprintf("disk%02d", i)) }

// leafHubID returns the node ID of switch-high leaf hub l.
func leafHubID(l int) NodeID { return NodeID(fmt.Sprintf("leafhub%02d", l)) }

// BuildSwitchHigh constructs the Figure 2 (right) topology: disks sit under
// leaf hubs; each leaf hub's uplink enters a cascade of 2:1 switches that
// can steer the whole hub to any host's aggregation hub. Placing switches
// high in the tree needs far fewer components than full per-disk trees
// (the paper's cost argument in §III-A).
//
// Component count: ceil(D/k) leaf hubs, (H-1) switches per leaf hub, and one
// aggregation hub per host (more if leaf hubs exceed fan-in).
func BuildSwitchHigh(cfg Config) (*Fabric, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := New()
	leafHubs := (cfg.Disks + cfg.FanIn - 1) / cfg.FanIn

	// Host-side aggregation: one slot per leaf hub per host.
	hostSlots := make(map[string][]Attachment)
	for _, h := range cfg.Hosts {
		if _, err := f.AddRootPort(h); err != nil {
			return nil, err
		}
		slots, err := buildAggregation(f, h, leafHubs, cfg.FanIn)
		if err != nil {
			return nil, err
		}
		hostSlots[h] = slots
	}

	// Leaf hubs with their switch cascades.
	for l := 0; l < leafHubs; l++ {
		ups := make([]Attachment, len(cfg.Hosts))
		for hi, h := range cfg.Hosts {
			ups[hi] = hostSlots[h][l]
		}
		top, err := buildCascade(f, fmt.Sprintf("lh%02d", l), ups)
		if err != nil {
			return nil, err
		}
		hubID := leafHubID(l)
		if err := f.AddHub(hubID, cfg.FanIn, top); err != nil {
			return nil, err
		}
		for s := 0; s < cfg.FanIn; s++ {
			di := l*cfg.FanIn + s
			if di >= cfg.Disks {
				break
			}
			if err := f.AddDisk(DiskID(di), Attachment{Parent: hubID, Slot: s}); err != nil {
				return nil, err
			}
		}
	}
	balance(f, cfg)
	return f, nil
}

// BuildFullTrees constructs the Figure 2 (left) topology: one full hub tree
// per host spanning every disk position, with a per-disk switch cascade
// selecting which tree the disk joins. Maximum flexibility (each disk moves
// independently) at maximum component cost — the ablation baseline.
func BuildFullTrees(cfg Config) (*Fabric, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := New()
	treeSlots := make(map[string][]Attachment)
	for _, h := range cfg.Hosts {
		if _, err := f.AddRootPort(h); err != nil {
			return nil, err
		}
		slots, err := buildAggregation(f, h, cfg.Disks, cfg.FanIn)
		if err != nil {
			return nil, err
		}
		treeSlots[h] = slots
	}
	for d := 0; d < cfg.Disks; d++ {
		ups := make([]Attachment, len(cfg.Hosts))
		for hi, h := range cfg.Hosts {
			ups[hi] = treeSlots[h][d]
		}
		top, err := buildCascade(f, fmt.Sprintf("dk%02d", d), ups)
		if err != nil {
			return nil, err
		}
		// The disk plugs straight into its cascade.
		if err := f.AddDisk(DiskID(d), top); err != nil {
			return nil, err
		}
	}
	balance(f, cfg)
	return f, nil
}

// buildAggregation builds host h's aggregation tree providing `want`
// downstream slots, returning them in order. With want <= fanIn a single
// hub under the root port suffices; otherwise hubs cascade (up to the USB
// tier limit, which the caller's config must respect).
func buildAggregation(f *Fabric, host string, want, fanIn int) ([]Attachment, error) {
	rootHub := NodeID(fmt.Sprintf("agg:%s:0", host))
	if err := f.AddHub(rootHub, fanIn, Attachment{Parent: NodeID("root:" + host), Slot: 0}); err != nil {
		return nil, err
	}
	level := []NodeID{rootHub}
	capacity := fanIn
	gen := 1
	for capacity < want {
		var next []NodeID
		for _, parent := range level {
			for s := 0; s < fanIn; s++ {
				id := NodeID(fmt.Sprintf("agg:%s:%d.%s.%d", host, gen, parent, s))
				if err := f.AddHub(id, fanIn, Attachment{Parent: parent, Slot: s}); err != nil {
					return nil, err
				}
				next = append(next, id)
			}
		}
		level = next
		capacity = len(level) * fanIn
		gen++
	}
	slots := make([]Attachment, 0, want)
	for _, hub := range level {
		for s := 0; s < fanIn && len(slots) < want; s++ {
			slots = append(slots, Attachment{Parent: hub, Slot: s})
		}
	}
	return slots, nil
}

// buildCascade builds a binary tree of 2:1 switches whose single downstream
// slot (returned) can be routed to any of ups. len(ups)-1 switches are
// created. With len(ups)==1 no switch is needed and ups[0] is returned.
func buildCascade(f *Fabric, prefix string, ups []Attachment) (Attachment, error) {
	if len(ups) == 1 {
		return ups[0], nil
	}
	n := 0
	var build func(ups []Attachment) (Attachment, error)
	build = func(ups []Attachment) (Attachment, error) {
		if len(ups) == 1 {
			return ups[0], nil
		}
		mid := len(ups) / 2
		left, err := build(ups[:mid])
		if err != nil {
			return Attachment{}, err
		}
		right, err := build(ups[mid:])
		if err != nil {
			return Attachment{}, err
		}
		id := NodeID(fmt.Sprintf("sw:%s:%d", prefix, n))
		n++
		if err := f.AddSwitch(id, left, right); err != nil {
			return Attachment{}, err
		}
		return Attachment{Parent: id, Slot: 0}, nil
	}
	return build(ups)
}

// balance sets initial switch positions so disks spread evenly over hosts:
// disk i (or its leaf-hub group) routes to host i mod H.
func balance(f *Fabric, cfg Config) {
	for i := 0; i < cfg.Disks; i++ {
		// In switch-high fabrics whole leaf-hub groups move together, so
		// balance by group; per-disk cascades balance by disk.
		group := i
		if _, isGroup := f.nodes[leafHubID(i/cfg.FanIn)]; isGroup {
			group = i / cfg.FanIn
		}
		target := cfg.Hosts[group%len(cfg.Hosts)]
		settings, err := f.RouteTo(DiskID(i), target)
		if err != nil {
			continue
		}
		for _, st := range settings {
			_ = f.SetSwitch(st.Switch, st.Sel)
		}
	}
}

// Prototype returns the paper's proof-of-concept configuration: 16 disks,
// 4 hosts, 4-port hubs, switch-high topology (§V-B).
func Prototype() (*Fabric, error) {
	return BuildSwitchHigh(Config{
		Hosts: []string{"h1", "h2", "h3", "h4"},
		Disks: 16,
		FanIn: 4,
	})
}

// ProductionUnit returns the cost model's 64-disk deploy unit (§VI).
func ProductionUnit() (*Fabric, error) {
	return BuildSwitchHigh(Config{
		Hosts: []string{"h1", "h2", "h3", "h4"},
		Disks: 64,
		FanIn: 4,
	})
}
