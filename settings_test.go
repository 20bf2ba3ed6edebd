package ustore

import (
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ustore/internal/chaos"
	"ustore/internal/core"
	"ustore/internal/fabric"
	"ustore/internal/fleet"
	"ustore/internal/workload"
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
	// perfAPI: a field the frozen perf/ benchmark reads; the reason names
	// the line that reads it.
	perfAPI = "perf-api"
)

type settingReason struct{ class, why string }

// settings is the inventory: every exported field of the six option
// structs, with its reason class.
var settings = map[string]settingReason{
	"core.Config.Fabric":                {twoValues, "core.DefaultConfig's 4-host 16-disk prototype and chaos.trafficConfig's 3-host 6-disk unit"},
	"core.Config.FullTrees":             {twoValues, "bench's switching experiment (full trees) and core.DefaultConfig (switch-high)"},
	"core.Config.HeartbeatInterval":     {twoValues, "chaos.leanConfig (5m) and chaos.trafficConfig (30s)"},
	"core.Config.SpinDownIdle":          {twoValues, "examples/powersave (60s) and core.DefaultConfig (off)"},
	"core.Config.BootSpinUpConcurrency": {paperMechanism, "§III-B rolling spin-up: TestClusterBootWithRollingSpinUp"},
	"core.Config.HostDeviceLimit":       {paperMechanism, "§V-B Intel driver device limit: TestIntelDeviceLimitQuirk"},
	"core.Config.RPCTimeout":            {twoValues, "chaos.stretchedConfig (2s) and core.DefaultConfig (1s)"},
	"core.Config.ElectionTTL":           {twoValues, "chaos.stretchedConfig (30m) and core.DefaultConfig (2s)"},
	"core.Config.Paxos":                 {twoValues, "chaos.stretchedConfig (1m heartbeats) and core.DefaultConfig (paxos.DefaultConfig)"},
	"core.Config.CoordSweepInterval":    {twoValues, "chaos.stretchedConfig (2m) and core.DefaultConfig (250ms)"},
	"core.Config.DisableChecksums":      {plantedBug, "ustore-chaos -no-checksums"},
	"core.Config.ScrubInterval":         {twoValues, "chaos.leanConfig (Options.ScrubEvery) and chaos.trafficConfig (off)"},
	"core.Config.Seed":                  {runIdentity, "the run's seed"},
	"core.Config.Recorder":              {runIdentity, "the run's metrics and trace recorder"},
	"core.Config.History":               {runIdentity, "the run's operation history"},
	"core.Config.InjectStaleLease":      {plantedBug, "ustore-chaos -stale-lease"},
	"core.Config.HealthQuarantine":      {twoValues, "ustore-chaos -mitigation on and off (chaos.leanConfig)"},
	"core.Config.InjectQuarantineBlind": {plantedBug, "ustore-chaos -quarantine-blind"},
	"core.Config.Protection":            {twoValues, "ustore-chaos -tenants with and without -protect (chaos.trafficConfig)"},

	"core.ProtectionConfig.Classes": {perfAPI, "perf/probes.go:551 reads DefaultTrafficOptions(1).ProtectionConfig().Classes"},

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

	"workload.TrafficOptions.Seed":         {runIdentity, "the run's seed"},
	"workload.TrafficOptions.Classes":      {perfAPI, "perf/probes.go:595 ranges DefaultTrafficOptions(1).Classes"},
	"workload.TrafficOptions.Warmup":       {perfAPI, "perf/workloads.go:151 sums the phase timeline"},
	"workload.TrafficOptions.Quiescent":    {perfAPI, "perf/workloads.go:151 sums the phase timeline"},
	"workload.TrafficOptions.Storm":        {perfAPI, "perf/workloads.go:151 sums the phase timeline"},
	"workload.TrafficOptions.Drain":        {perfAPI, "perf/workloads.go:151 sums the phase timeline"},
	"workload.TrafficOptions.StormEnabled": {twoValues, "ustore-chaos -tenants with and without -storm (chaos.trafficOptions)"},
	"workload.TrafficOptions.Protect":      {twoValues, "ustore-chaos -tenants with and without -protect (chaos.trafficOptions)"},
}

// TestSettingsInventory holds every exported field of core.Config,
// core.ProtectionConfig, fabric.Config, fleet.Config, chaos.FleetOptions
// and workload.TrafficOptions to the settings table: a new field fails
// until it is listed with a reason class, and a listed field that is gone
// fails until its line is removed.
func TestSettingsInventory(t *testing.T) {
	fields := map[string]bool{}
	for _, v := range []any{core.Config{}, core.ProtectionConfig{}, fabric.Config{}, fleet.Config{},
		chaos.FleetOptions{}, workload.TrafficOptions{}} {
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
		case perfAPI:
			checkPerfLine(t, name, r.why)
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

// checkPerfLine holds a perf-api reason to the perf/ line it names: that
// line must mention the field.
func checkPerfLine(t *testing.T, name, why string) {
	t.Helper()
	loc, _, _ := strings.Cut(why, " ")
	file, rest, _ := strings.Cut(loc, ":")
	n, err := strconv.Atoi(rest)
	if !strings.HasPrefix(file, "perf/") || err != nil {
		t.Errorf("%s: perf-api reason %q does not start with a perf/FILE:LINE", name, why)
		return
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	field := name[strings.LastIndex(name, ".")+1:]
	if n < 1 || n > len(lines) || !strings.Contains(lines[n-1], field) {
		t.Errorf("%s: %s:%d does not read %s", name, file, n, field)
	}
}
