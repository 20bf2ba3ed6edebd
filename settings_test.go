package ustore

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"ustore/internal/chaos"
	"ustore/internal/core"
	"ustore/internal/fabric"
	"ustore/internal/fleet"
)

// The reason classes a setting may exist for (DESIGN.md §17). A value that
// every production entry point leaves at one value is a constant instead.
const (
	// twoValues: production entry points set at least two values; the
	// reason names two of those callers.
	twoValues = "two-values"
	// runIdentity: which run this is — seed, recorder, history, worker cap.
	runIdentity = "run-identity"
	// plantedBug: a deliberate bug a CLI flag arms for a checker self-test.
	plantedBug = "planted-bug"
	// paperMechanism: a paper mechanism a fidelity test reproduces.
	paperMechanism = "paper-mechanism"
)

type settingReason struct{ class, why string }

// settings is the inventory: every exported field of the four option
// structs, with its reason class.
var settings = map[string]settingReason{
	"core.Config.Fabric":                {twoValues, "core.DefaultConfig's 4-host 16-disk prototype and chaos.trafficConfig's 3-host 6-disk unit"},
	"core.Config.FullTrees":             {twoValues, "bench's switching experiment (full trees) and core.DefaultConfig (switch-high)"},
	"core.Config.HeartbeatInterval":     {twoValues, "chaos.leanConfig (5m) and chaos.trafficConfig (30s)"},
	"core.Config.SpinDownIdle":          {twoValues, "examples/powersave (60s) and core.DefaultConfig (off)"},
	"core.Config.BootSpinUpConcurrency": {paperMechanism, "§III-B rolling spin-up: TestClusterBootWithRollingSpinUp"},
	"core.Config.HostDeviceLimit":       {paperMechanism, "§V-B Intel driver device limit: TestIntelDeviceLimitQuirk"},
	"core.Config.RPCTimeout":            {twoValues, "chaos.leanConfig (2s) and core.DefaultConfig (1s)"},
	"core.Config.ElectionTTL":           {twoValues, "chaos.leanConfig (30m) and core.DefaultConfig (2s)"},
	"core.Config.Paxos":                 {twoValues, "chaos.leanConfig (1m heartbeats) and core.DefaultConfig (paxos.DefaultConfig)"},
	"core.Config.CoordSweepInterval":    {twoValues, "chaos.leanConfig (2m) and core.DefaultConfig (the store's 250ms)"},
	"core.Config.DisableChecksums":      {plantedBug, "ustore-chaos -no-checksums"},
	"core.Config.ScrubInterval":         {twoValues, "chaos.leanConfig (Options.ScrubEvery) and chaos.trafficConfig (off)"},
	"core.Config.Seed":                  {runIdentity, "the run's seed"},
	"core.Config.Recorder":              {runIdentity, "the run's metrics and trace recorder"},
	"core.Config.History":               {runIdentity, "the run's operation history"},
	"core.Config.InjectStaleLease":      {plantedBug, "ustore-chaos -stale-lease"},
	"core.Config.HealthQuarantine":      {twoValues, "ustore-chaos -mitigation on and off (chaos.leanConfig)"},
	"core.Config.InjectQuarantineBlind": {plantedBug, "ustore-chaos -quarantine-blind"},
	"core.Config.Protection":            {twoValues, "ustore-chaos -tenants with and without -protect (chaos.trafficConfig)"},

	"fabric.Config.Hosts": {twoValues, "core.DefaultConfig (h1-h4) and chaos.trafficConfig (h1-h3)"},
	"fabric.Config.Disks": {twoValues, "fabric.Prototype (16) and fabric.ProductionUnit (64)"},
	"fabric.Config.FanIn": {twoValues, "ustore-sim -fanin and fabric-plan -fanin"},

	"fleet.Config.Units":             {twoValues, "perf's fleet workloads (64) and chaos.FleetOptions' default (8)"},
	"fleet.Config.Shards":            {twoValues, "perf's fleet workloads (8) and chaos.FleetOptions' default (1)"},
	"fleet.Config.RetryJitter":       {twoValues, "chaos.fleetConfig: on for fault runs, off otherwise"},
	"fleet.Config.InjectSkipRedrive": {plantedBug, "ustore-chaos -skip-redrive"},
	"fleet.Config.Seed":              {runIdentity, "the run's seed"},
	"fleet.Config.Recorder":          {runIdentity, "the run's metrics and trace recorder"},
	"fleet.Config.EngineWorkers":     {runIdentity, "the engine's worker cap"},

	"chaos.FleetOptions.Seed":              {runIdentity, "the run's seed"},
	"chaos.FleetOptions.Units":             {twoValues, "ustore-chaos -units and perf's fleet workloads (64)"},
	"chaos.FleetOptions.Shards":            {twoValues, "ustore-chaos -shards and perf's fleet workloads (8)"},
	"chaos.FleetOptions.Clients":           {twoValues, "ustore-chaos -fleet-bench (8 per shard) and perf's fleet_alloc (64)"},
	"chaos.FleetOptions.Volumes":           {twoValues, "campaign's fleet.volumes and the default (3 per unit)"},
	"chaos.FleetOptions.VolumeSize":        {twoValues, "ustore-chaos -fleet-bench (8 MiB) and the default (64 MiB)"},
	"chaos.FleetOptions.UnitLoss":          {twoValues, "ustore-chaos -unit-loss on and off"},
	"chaos.FleetOptions.ReplicaCrashes":    {twoValues, "ustore-chaos -crashes and fault-free runs (0)"},
	"chaos.FleetOptions.Partitions":        {twoValues, "ustore-chaos -partitions and fault-free runs (0)"},
	"chaos.FleetOptions.SlotMoves":         {twoValues, "ustore-chaos -moves and fault-free runs (0)"},
	"chaos.FleetOptions.FaultWindow":       {twoValues, "ustore-chaos -fault-window and the default (2m)"},
	"chaos.FleetOptions.InjectSkipRedrive": {plantedBug, "ustore-chaos -skip-redrive"},
	"chaos.FleetOptions.Recorder":          {runIdentity, "the run's metrics and trace recorder"},
	"chaos.FleetOptions.EngineWorkers":     {runIdentity, "the engine's worker cap"},
}

// TestSettingsInventory holds every exported field of core.Config,
// fabric.Config, fleet.Config and chaos.FleetOptions to the settings table:
// a new field fails until it is listed with a reason class, and a listed
// field that is gone fails until its line is removed.
func TestSettingsInventory(t *testing.T) {
	fields := map[string]bool{}
	for _, v := range []any{core.Config{}, fabric.Config{}, fleet.Config{}, chaos.FleetOptions{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fields[typ.String()+"."+f.Name] = true
			}
		}
	}
	var missing, stale []string
	for name := range fields {
		if _, ok := settings[name]; !ok {
			missing = append(missing, name)
		}
	}
	for name, r := range settings {
		if !fields[name] {
			stale = append(stale, name)
		}
		switch r.class {
		case twoValues, runIdentity, plantedBug, paperMechanism:
		default:
			t.Errorf("%s: unknown reason class %q", name, r.class)
		}
		if strings.TrimSpace(r.why) == "" {
			t.Errorf("%s: no reason given", name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, name := range missing {
		t.Errorf("%s is settable but not in the settings inventory: give it a reason class, or make it a constant", name)
	}
	for _, name := range stale {
		t.Errorf("%s is in the settings inventory but is no longer a field", name)
	}
}
