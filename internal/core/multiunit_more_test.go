package core

import (
	"fmt"
	"testing"
)

// Coverage for the multi-unit helpers themselves: the rig list, one rig per
// host, fabric-config namespacing, and the derived Master inventory. The
// end-to-end multi-unit behaviors live in multiunit_test.go.

func TestRigAccessorAliasesUnitRigs(t *testing.T) {
	c := bootMulti(t, 3)
	if len(c.UnitRigs) != 3 {
		t.Fatalf("rigs = %d, want 3", len(c.UnitRigs))
	}
	// Rig 0 is the primary unit the legacy accessors alias.
	if c.UnitRigs[0].Fabric != c.Fabric {
		t.Fatal("UnitRigs[0].Fabric is not the cluster's legacy Fabric alias")
	}
}

func TestRigOfHostResolvesEveryHostToItsOwnRig(t *testing.T) {
	c := bootMulti(t, 3)
	seen := map[string]bool{}
	for _, rig := range c.UnitRigs {
		for _, h := range rig.Fabric.Hosts() {
			if seen[h] {
				t.Fatalf("host %s appears in two rigs", h)
			}
			seen[h] = true
		}
	}
}

func TestUnitFabricConfigNamespacing(t *testing.T) {
	cfg := DefaultConfig()

	// Unit 0 keeps the plain names and the configured unit ID.
	id0, f0 := unitFabricConfig(cfg, 0)
	if id0 != cfg.UnitID {
		t.Fatalf("unit 0 ID = %q, want %q", id0, cfg.UnitID)
	}
	if f0.Prefix != "" {
		t.Fatalf("unit 0 prefix = %q, want empty", f0.Prefix)
	}
	for i, h := range f0.Hosts {
		if h != cfg.Fabric.Hosts[i] {
			t.Fatalf("unit 0 host %d = %q, want %q", i, h, cfg.Fabric.Hosts[i])
		}
	}

	// Later units get the "u<j>." namespace on prefix and every host, and
	// a derived unit ID.
	for _, j := range []int{1, 2, 7} {
		id, f := unitFabricConfig(cfg, j)
		wantPrefix := fmt.Sprintf("u%d.", j)
		if f.Prefix != wantPrefix {
			t.Fatalf("unit %d prefix = %q, want %q", j, f.Prefix, wantPrefix)
		}
		if want := fmt.Sprintf("unit%d", j); id != want {
			t.Fatalf("unit %d ID = %q, want %q", j, id, want)
		}
		if len(f.Hosts) != len(cfg.Fabric.Hosts) {
			t.Fatalf("unit %d host count = %d, want %d", j, len(f.Hosts), len(cfg.Fabric.Hosts))
		}
		for i, h := range f.Hosts {
			if want := wantPrefix + cfg.Fabric.Hosts[i]; h != want {
				t.Fatalf("unit %d host %d = %q, want %q", j, i, h, want)
			}
		}
	}

	// The derivation must not alias the caller's config: namespacing unit 1
	// leaves cfg.Fabric.Hosts untouched.
	_, f1 := unitFabricConfig(cfg, 1)
	f1.Hosts[0] = "mutated"
	if cfg.Fabric.Hosts[0] == "mutated" {
		t.Fatal("unitFabricConfig aliased the caller's host slice")
	}
}

func TestUnitInfosInventory(t *testing.T) {
	c := bootMulti(t, 2)
	infos := unitInfos(c.UnitRigs)
	if len(infos) != 2 {
		t.Fatalf("infos = %d, want 2", len(infos))
	}
	for i, info := range infos {
		rig := c.UnitRigs[i]
		if info.ID != rig.ID {
			t.Fatalf("info %d ID = %q, want %q", i, info.ID, rig.ID)
		}
		hosts := rig.Fabric.Hosts()
		if len(info.Hosts) != len(hosts) {
			t.Fatalf("info %d has %d hosts, want %d", i, len(info.Hosts), len(hosts))
		}
		// The unit's controllers run on its first two hosts.
		if len(info.Controllers) != 2 {
			t.Fatalf("info %d has %d controllers, want 2", i, len(info.Controllers))
		}
		for j, ctrl := range info.Controllers {
			if want := controllerNode(hosts[j]); ctrl != want {
				t.Fatalf("info %d controller %d = %q, want %q", i, j, ctrl, want)
			}
		}
	}
}

func TestAllGroupsCoversEveryRig(t *testing.T) {
	c := bootMulti(t, 2)
	groups := allGroups(c.UnitRigs)
	perRig := 0
	for _, rig := range c.UnitRigs {
		perRig += len(rig.Fabric.CoMovingGroups())
	}
	if len(groups) != perRig || len(groups) == 0 {
		t.Fatalf("allGroups = %d groups, want %d (> 0)", len(groups), perRig)
	}
	// Every disk named in a group must exist, and carry its unit's
	// namespace exactly when it is not unit 0's.
	for _, g := range groups {
		if len(g) == 0 {
			t.Fatal("empty co-moving group")
		}
		for _, d := range g {
			if c.Disks[d] == nil {
				t.Fatalf("group disk %s not in cluster disk map", d)
			}
		}
	}
}
