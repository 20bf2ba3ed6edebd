package fabric

import (
	"errors"
	"testing"
)

func proto(t *testing.T) *Fabric {
	t.Helper()
	f, err := Prototype()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPrototypeShape(t *testing.T) {
	f := proto(t)
	b := f.BOM()
	// 16 disks, 4 hosts, k=4 switch-high: 4 leaf hubs + 4 aggregation hubs,
	// 3 switches per leaf hub.
	if b.Disks != 16 || b.Bridges != 16 || b.Hosts != 4 {
		t.Fatalf("BOM = %+v", b)
	}
	if b.Hubs != 8 {
		t.Fatalf("hubs = %d, want 8 (4 leaf + 4 aggregation)", b.Hubs)
	}
	if b.Switches != 12 {
		t.Fatalf("switches = %d, want 12 (3 per leaf hub)", b.Switches)
	}
}

func TestFullTreesCostMoreComponents(t *testing.T) {
	cfg := Config{Hosts: []string{"h1", "h2", "h3", "h4"}, Disks: 16, FanIn: 4}
	sh, err := BuildSwitchHigh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := BuildFullTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs, bf := sh.BOM(), ft.BOM()
	if bf.Hubs <= bs.Hubs {
		t.Fatalf("full trees hubs %d <= switch-high hubs %d", bf.Hubs, bs.Hubs)
	}
	if bf.Switches <= bs.Switches {
		t.Fatalf("full trees switches %d <= switch-high %d", bf.Switches, bs.Switches)
	}
	// Per-disk cascades: 16 disks x 3 switches.
	if bf.Switches != 48 {
		t.Fatalf("full-tree switches = %d, want 48", bf.Switches)
	}
}

func TestInitialBalance(t *testing.T) {
	f := proto(t)
	counts := make(map[string]int)
	for _, d := range f.Disks() {
		h, err := f.AttachedHost(d)
		if err != nil {
			t.Fatalf("disk %s: %v", d, err)
		}
		counts[h]++
	}
	for _, h := range f.Hosts() {
		if counts[h] != 4 {
			t.Fatalf("host %s has %d disks, want 4 (balance): %v", h, counts[h], counts)
		}
	}
}

// reachableHosts returns the hosts disk can reach under some switch
// assignment through healthy components, in host order.
func reachableHosts(f *Fabric, disk NodeID) []string {
	var out []string
	for _, h := range f.Hosts() {
		if _, err := f.RouteTo(disk, h); err == nil {
			out = append(out, h)
		}
	}
	return out
}

func TestEveryDiskReachesEveryHost(t *testing.T) {
	f := proto(t)
	for _, d := range f.Disks() {
		hosts := reachableHosts(f, d)
		if len(hosts) != 4 {
			t.Fatalf("disk %s reaches %v, want all 4 hosts", d, hosts)
		}
	}
}

func TestRouteToAndSetSwitchMovesDisk(t *testing.T) {
	f := proto(t)
	d := DiskID(0)
	cur, _ := f.AttachedHost(d)
	var target string
	for _, h := range f.Hosts() {
		if h != cur {
			target = h
			break
		}
	}
	settings, err := f.RouteTo(d, target)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range settings {
		if err := f.SetSwitch(st.Switch, st.Sel); err != nil {
			t.Fatal(err)
		}
	}
	got, err := f.AttachedHost(d)
	if err != nil || got != target {
		t.Fatalf("attached to %s (err %v), want %s", got, err, target)
	}
}

func TestSwitchHighGroupMovesTogether(t *testing.T) {
	// In the switch-high fabric, disks 0-3 share leafhub00: moving disk 0
	// moves its whole group.
	f := proto(t)
	h0, _ := f.AttachedHost(DiskID(0))
	h1, _ := f.AttachedHost(DiskID(1))
	if h0 != h1 {
		t.Fatalf("group mates on different hosts: %s vs %s", h0, h1)
	}
	var target string
	for _, h := range f.Hosts() {
		if h != h0 {
			target = h
			break
		}
	}
	turns, err := f.ForcedTurns([]DiskHost{{Disk: DiskID(0), Host: target}})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range turns {
		_ = f.SetSwitch(st.Switch, st.Sel)
	}
	for i := 0; i < 4; i++ {
		h, _ := f.AttachedHost(DiskID(i))
		if h != target {
			t.Fatalf("group mate disk%02d on %s, want %s", i, h, target)
		}
	}
}

func TestAlgorithm1Conflict(t *testing.T) {
	// Moving disk 0 alone conflicts: its leaf-hub cascade is pinned by
	// disks 1-3 (the paper's "force disk E to be disconnected" case).
	f := proto(t)
	var target string
	h0, _ := f.AttachedHost(DiskID(0))
	for _, h := range f.Hosts() {
		if h != h0 {
			target = h
			break
		}
	}
	_, err := f.SwitchesToTurn([]DiskHost{{Disk: DiskID(0), Host: target}})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("err type %T", err)
	}
	if len(ce.Disturbed) == 0 {
		t.Fatal("conflict error names no disturbed disks")
	}
}

func TestAlgorithm1GroupMoveNoConflict(t *testing.T) {
	// Naming the whole leaf-hub group in the command clears the conflict.
	f := proto(t)
	h0, _ := f.AttachedHost(DiskID(0))
	var target string
	for _, h := range f.Hosts() {
		if h != h0 {
			target = h
			break
		}
	}
	pairs := make([]DiskHost, 4)
	for i := range pairs {
		pairs[i] = DiskHost{Disk: DiskID(i), Host: target}
	}
	turns, err := f.SwitchesToTurn(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(turns) == 0 {
		t.Fatal("no turns computed")
	}
	for _, st := range turns {
		_ = f.SetSwitch(st.Switch, st.Sel)
	}
	for i := 0; i < 4; i++ {
		h, _ := f.AttachedHost(DiskID(i))
		if h != target {
			t.Fatalf("disk%02d on %s, want %s", i, h, target)
		}
	}
}

func TestAlgorithm1NoopWhenAlreadyThere(t *testing.T) {
	f := proto(t)
	h0, _ := f.AttachedHost(DiskID(0))
	turns, err := f.SwitchesToTurn([]DiskHost{{Disk: DiskID(0), Host: h0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(turns) != 0 {
		t.Fatalf("turns = %v, want none (already attached)", turns)
	}
}

func TestAlgorithm1ContradictoryCommand(t *testing.T) {
	f := proto(t)
	hosts := f.Hosts()
	_, err := f.SwitchesToTurn([]DiskHost{
		{Disk: DiskID(0), Host: hosts[0]},
		{Disk: DiskID(0), Host: hosts[1]},
	})
	if err == nil {
		t.Fatal("contradictory command accepted")
	}
	// Two disks of the same group to different hosts must also conflict.
	_, err = f.SwitchesToTurn([]DiskHost{
		{Disk: DiskID(0), Host: hosts[1]},
		{Disk: DiskID(1), Host: hosts[2]},
		{Disk: DiskID(2), Host: hosts[1]},
		{Disk: DiskID(3), Host: hosts[1]},
	})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
}

func TestFullTreesPerDiskIndependence(t *testing.T) {
	cfg := Config{Hosts: []string{"h1", "h2"}, Disks: 8, FanIn: 4}
	f, err := BuildFullTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Any single disk can move without conflict in the full-trees design.
	h0, _ := f.AttachedHost(DiskID(0))
	target := "h2"
	if h0 == "h2" {
		target = "h1"
	}
	turns, err := f.SwitchesToTurn([]DiskHost{{Disk: DiskID(0), Host: target}})
	if err != nil {
		t.Fatalf("independent move conflicted: %v", err)
	}
	for _, st := range turns {
		_ = f.SetSwitch(st.Switch, st.Sel)
	}
	got, _ := f.AttachedHost(DiskID(0))
	if got != target {
		t.Fatalf("disk on %s, want %s", got, target)
	}
	// Others undisturbed.
	for i := 1; i < 8; i++ {
		if h, _ := f.AttachedHost(DiskID(i)); h == "" {
			t.Fatalf("disk%02d disconnected", i)
		}
	}
}

func TestDisturbedBy(t *testing.T) {
	f := proto(t)
	h0, _ := f.AttachedHost(DiskID(0))
	var target string
	for _, h := range f.Hosts() {
		if h != h0 {
			target = h
			break
		}
	}
	turns, err := f.ForcedTurns([]DiskHost{{Disk: DiskID(0), Host: target}})
	if err != nil {
		t.Fatal(err)
	}
	disturbed := f.DisturbedBy(turns, []DiskHost{{Disk: DiskID(0), Host: target}})
	if len(disturbed) != 3 {
		t.Fatalf("disturbed = %v, want disks 1-3", disturbed)
	}
	// What-if must not change live state.
	if h, _ := f.AttachedHost(DiskID(1)); h != h0 {
		t.Fatalf("DisturbedBy mutated fabric: disk01 on %s", h)
	}
}

func TestFailedHubBreaksPathsAndRouting(t *testing.T) {
	f := proto(t)
	// Fail disk 0's leaf hub: all four group disks lose their path.
	path, err := f.PathToRoot(DiskID(0))
	if err != nil {
		t.Fatal(err)
	}
	var leafHub NodeID
	for _, id := range path {
		if f.Node(id).Kind == KindHub {
			leafHub = id
			break
		}
	}
	if err := f.Fail(leafHub); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := f.AttachedHost(DiskID(i)); !errors.Is(err, ErrBrokenPath) {
			t.Fatalf("disk%02d err = %v, want ErrBrokenPath", i, err)
		}
		if hosts := reachableHosts(f, DiskID(i)); len(hosts) != 0 {
			t.Fatalf("disk%02d still routes to %v through failed hub", i, hosts)
		}
	}
	// Other groups unaffected.
	if _, err := f.AttachedHost(DiskID(4)); err != nil {
		t.Fatalf("disk04: %v", err)
	}
	if err := f.Repair(leafHub); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AttachedHost(DiskID(0)); err != nil {
		t.Fatalf("after repair: %v", err)
	}
}

func TestFailedAggregationHubRoutesAround(t *testing.T) {
	f := proto(t)
	h, _ := f.AttachedHost(DiskID(0))
	aggHub := NodeID("agg:" + h + ":0")
	if err := f.Fail(aggHub); err != nil {
		t.Fatal(err)
	}
	// Disk can no longer reach h, but reaches the other three hosts.
	hosts := reachableHosts(f, DiskID(0))
	if len(hosts) != 3 {
		t.Fatalf("reachable = %v, want 3 hosts", hosts)
	}
	for _, rh := range hosts {
		if rh == h {
			t.Fatalf("failed aggregation hub still routable: %v", hosts)
		}
	}
}

func TestUnpoweredDiskExcluded(t *testing.T) {
	f := proto(t)
	if err := f.SetPower(DiskID(0), false); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AttachedHost(DiskID(0)); !errors.Is(err, ErrBrokenPath) {
		t.Fatalf("err = %v", err)
	}
	// Power relays only exist on disks and hubs.
	if err := f.SetPower(NodeID("root:h1"), false); err == nil {
		t.Fatal("root port accepted power relay")
	}
}

func TestVisibleTreeShape(t *testing.T) {
	f := proto(t)
	for _, h := range f.Hosts() {
		edges := f.VisibleTree(h)
		// Each host: agg hub under root, one leaf hub under agg, 4 disks.
		var hubs, disks int
		for _, e := range edges {
			switch f.Node(e.Child).Kind {
			case KindHub:
				hubs++
			case KindDisk:
				disks++
			default:
				t.Fatalf("switch leaked into visible tree: %+v", e)
			}
		}
		if hubs != 2 || disks != 4 {
			t.Fatalf("host %s visible tree: %d hubs %d disks, want 2/4", h, hubs, disks)
		}
	}
}

func TestVisibleTreePrunesFailures(t *testing.T) {
	f := proto(t)
	h, _ := f.AttachedHost(DiskID(0))
	if err := f.Fail(DiskID(0)); err != nil {
		t.Fatal(err)
	}
	for _, e := range f.VisibleTree(h) {
		if e.Child == DiskID(0) {
			t.Fatal("failed disk visible")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Hosts: []string{"h1"}, Disks: 4, FanIn: 4},
		{Hosts: []string{"h1", "h2"}, Disks: 0, FanIn: 4},
		{Hosts: []string{"h1", "h2"}, Disks: 4, FanIn: 1},
	}
	for i, cfg := range bad {
		if _, err := BuildSwitchHigh(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
		if _, err := BuildFullTrees(cfg); err == nil {
			t.Fatalf("config %d accepted by full trees: %+v", i, cfg)
		}
	}
}

func TestProductionUnitBuilds(t *testing.T) {
	f, err := ProductionUnit()
	if err != nil {
		t.Fatal(err)
	}
	b := f.BOM()
	if b.Disks != 64 {
		t.Fatalf("disks = %d", b.Disks)
	}
	// 16 leaf hubs, so each host needs 2 aggregation levels (1 + 4 hubs).
	if b.Switches != 16*3 {
		t.Fatalf("switches = %d, want 48", b.Switches)
	}
	for _, d := range f.Disks() {
		if len(reachableHosts(f, d)) != 4 {
			t.Fatalf("disk %s cannot reach all hosts", d)
		}
	}
}

func TestNonPowerOfTwoHosts(t *testing.T) {
	f, err := BuildSwitchHigh(Config{Hosts: []string{"h1", "h2", "h3"}, Disks: 6, FanIn: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Disks() {
		if got := len(reachableHosts(f, d)); got != 3 {
			t.Fatalf("disk %s reaches %d hosts, want 3", d, got)
		}
	}
}
