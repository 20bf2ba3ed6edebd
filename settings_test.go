package ustore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ustore/internal/chaos"
	"ustore/internal/core"
	"ustore/internal/fabric"
	"ustore/internal/fleet"
	"ustore/internal/paxos"
	"ustore/internal/spec"
	"ustore/internal/workload"
)

// The reason classes a setting may exist for (DESIGN.md §17). A value that
// every production caller leaves at one value is a constant instead. A
// production caller is Go code outside _test.go files, a command line in
// .github/workflows/ci.yml, README.md or scripts/coverage-sweep.sh, or a
// spec in examples/ or one those scripts write; tests do not count.
const (
	// twoValues: production callers set at least two values; the reason
	// names two of those callers.
	twoValues = "two-values"
	// runIdentity: which run this is — seed, recorder, history.
	runIdentity = "run-identity"
	// paperMechanism: a paper mechanism a fidelity test reproduces.
	paperMechanism = "paper-mechanism"
	// perfAPI: a field the frozen perf/ benchmark reads; the reason names
	// the line that reads it.
	perfAPI = "perf-api"
)

type settingReason struct{ class, why string }

// settings is the inventory: every exported field of the inventoried option
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
	"core.Config.DisableChecksums":      {twoValues, "ustore-chaos -no-checksums (README, coverage-sweep.sh) and the checksummed default"},
	"core.Config.ScrubInterval":         {twoValues, "chaos.leanConfig (1h) and chaos.trafficConfig (off)"},
	"core.Config.Seed":                  {runIdentity, "the run's seed"},
	"core.Config.Recorder":              {runIdentity, "the run's metrics and trace recorder"},
	"core.Config.History":               {runIdentity, "the run's operation history"},
	"core.Config.HealthQuarantine":      {twoValues, "ustore-chaos -mitigation on and off (chaos.leanConfig)"},
	"core.Config.Protection":            {twoValues, "ustore-chaos -tenants with and without -protect (chaos.trafficConfig)"},

	"core.ProtectionConfig.Classes": {perfAPI, "perf/probes.go:551 reads DefaultTrafficOptions(1).ProtectionConfig().Classes"},

	"fabric.Config.Hosts": {twoValues, "core.DefaultConfig (h1-h4) and chaos.trafficConfig (h1-h3)"},
	"fabric.Config.Disks": {twoValues, "fabric.Prototype (16) and fabric.ProductionUnit (64)"},
	"fabric.Config.FanIn": {twoValues, "core.DefaultConfig (4) and bench.AblateFanIn (2, 4 and 7)"},

	"paxos.Config.HeartbeatInterval":   {twoValues, "chaos.stretchedConfig (1m) and paxos.DefaultConfig (100ms)"},
	"paxos.Config.ElectionTimeoutBase": {twoValues, "chaos.stretchedConfig (4m) and paxos.DefaultConfig (400ms)"},
	"paxos.Config.PhaseTimeout":        {twoValues, "chaos.stretchedConfig (2m) and paxos.DefaultConfig (300ms)"},
	"paxos.Config.Rand":                {twoValues, "fleet.New's per-unit streams (seed^(1+u)) and nil, the network's stream (core.DefaultConfig)"},

	"fleet.Config.Units":         {twoValues, "perf's fleet workloads (64) and chaos.FleetOptions' default (8)"},
	"fleet.Config.Shards":        {twoValues, "perf's fleet workloads (8) and chaos.FleetOptions' default (1)"},
	"fleet.Config.RetryJitter":   {twoValues, "chaos.fleetConfig: on for fault runs, off otherwise"},
	"fleet.Config.Seed":          {runIdentity, "the run's seed"},
	"fleet.Config.Recorder":      {runIdentity, "the run's metrics and trace recorder"},
	"fleet.Config.EngineWorkers": {perfAPI, "perf/workloads.go:248 sets it; accepted and ignored"},

	"chaos.Options.Seed":             {runIdentity, "the run's seed"},
	"chaos.Options.Duration":         {twoValues, "ustore-chaos -days 1 and perf's chaos_soak (8 days)"},
	"chaos.Options.HostCrashes":      {perfAPI, "perf/probes.go:655 turns the five fail-stop families off"},
	"chaos.Options.DiskFaults":       {perfAPI, "perf/probes.go:655 turns the five fail-stop families off"},
	"chaos.Options.HubFaults":        {perfAPI, "perf/probes.go:655 turns the five fail-stop families off"},
	"chaos.Options.NetFaults":        {perfAPI, "perf/probes.go:655 turns the five fail-stop families off"},
	"chaos.Options.Corruptions":      {perfAPI, "perf/probes.go:655 turns the five fail-stop families off"},
	"chaos.Options.GrayFaults":       {twoValues, "ustore-chaos -gray on and off"},
	"chaos.Options.Mitigation":       {twoValues, "ustore-chaos -mitigation on and off"},
	"chaos.Options.Tenants":          {twoValues, "ustore-chaos -tenants and fault runs"},
	"chaos.Options.Storm":            {twoValues, "ustore-chaos -tenants with and without -storm"},
	"chaos.Options.Protect":          {twoValues, "ustore-chaos -tenants with and without -protect"},
	"chaos.Options.DisableChecksums": {twoValues, "ustore-chaos -no-checksums (README, coverage-sweep.sh) and the checksummed default"},
	"chaos.Options.Recorder":         {runIdentity, "the run's metrics and trace recorder"},
	"chaos.Options.Empirical":        {twoValues, "coverage-sweep.sh's failure.model: empirical spec and the constant default"},
	"chaos.Options.AgeYears":         {twoValues, "coverage-sweep.sh's failure.age_years: 3 spec and spec.Default (5)"},

	"chaos.FleetOptions.Seed":           {runIdentity, "the run's seed"},
	"chaos.FleetOptions.Units":          {twoValues, "ustore-chaos -units and perf's fleet workloads (64)"},
	"chaos.FleetOptions.Shards":         {twoValues, "ustore-chaos -shards and perf's fleet workloads (8)"},
	"chaos.FleetOptions.Clients":        {twoValues, "ustore-chaos -fleet-bench (8 per shard) and perf's fleet_alloc (64)"},
	"chaos.FleetOptions.VolumeSize":     {twoValues, "ustore-chaos -fleet-bench (8 MiB) and the default (64 MiB)"},
	"chaos.FleetOptions.UnitLoss":       {twoValues, "ustore-chaos -unit-loss on and off"},
	"chaos.FleetOptions.ReplicaCrashes": {twoValues, "ustore-chaos -crashes and fault-free runs (0)"},
	"chaos.FleetOptions.Partitions":     {twoValues, "ustore-chaos -partitions and fault-free runs (0)"},
	"chaos.FleetOptions.SlotMoves":      {twoValues, "ustore-chaos -moves and fault-free runs (0)"},
	"chaos.FleetOptions.Recorder":       {runIdentity, "the run's metrics and trace recorder"},
	"chaos.FleetOptions.EngineWorkers":  {perfAPI, "perf/workloads.go:239 sets it; accepted and ignored"},

	"workload.TrafficOptions.Seed":         {runIdentity, "the run's seed"},
	"workload.TrafficOptions.Classes":      {perfAPI, "perf/probes.go:595 ranges DefaultTrafficOptions(1).Classes"},
	"workload.TrafficOptions.Warmup":       {perfAPI, "perf/workloads.go:151 sums the phase timeline"},
	"workload.TrafficOptions.Quiescent":    {perfAPI, "perf/workloads.go:151 sums the phase timeline"},
	"workload.TrafficOptions.Storm":        {perfAPI, "perf/workloads.go:151 sums the phase timeline"},
	"workload.TrafficOptions.Drain":        {perfAPI, "perf/workloads.go:151 sums the phase timeline"},
	"workload.TrafficOptions.StormEnabled": {twoValues, "ustore-chaos -tenants with and without -storm (chaos.trafficOptions)"},
	"workload.TrafficOptions.Protect":      {twoValues, "ustore-chaos -tenants with and without -protect (chaos.trafficOptions)"},

	"spec.Spec.Name":             {runIdentity, "the run's name in a campaign report"},
	"spec.Spec.Mode":             {twoValues, "ustore-chaos -fleet and examples/durability.yaml (durability)"},
	"spec.Spec.Seed":             {runIdentity, "the run's seed"},
	"spec.Spec.Days":             {twoValues, "ustore-chaos -days 1 and -days 0.25 (ci.yml)"},
	"spec.FaultsSpec.Gray":       {twoValues, "ustore-chaos -gray on and off"},
	"spec.FaultsSpec.Mitigation": {twoValues, "ustore-chaos -mitigation on and off"},
	"spec.FailureSpec.Model":     {twoValues, "examples/durability.yaml's grid (constant, empirical)"},
	"spec.FailureSpec.AgeYears":  {twoValues, "coverage-sweep.sh's empirical spec (3) and spec.Default (5)"},
	"spec.TrafficSpec.Storm":     {twoValues, "ustore-chaos -tenants with and without -storm"},
	"spec.TrafficSpec.Protect":   {twoValues, "ustore-chaos -tenants with and without -protect"},
	"spec.FleetSpec.Units":       {twoValues, "ustore-chaos -units 8 and -units 16 (ci.yml)"},
	"spec.FleetSpec.Shards":      {twoValues, "ustore-chaos -shards 2 and -shards 4 (ci.yml)"},
	"spec.FleetSpec.UnitLoss":    {twoValues, "ustore-chaos -unit-loss on and off"},
	"spec.FleetSpec.Crashes":     {twoValues, "ustore-chaos -crashes 2 (ci.yml) and -crashes 3 (README)"},
	"spec.FleetSpec.Partitions":  {twoValues, "ustore-chaos -partitions 1 (ci.yml) and -partitions 2 (README)"},
	"spec.FleetSpec.SlotMoves":   {twoValues, "ustore-chaos -moves 2 and fault-free fleet runs (0)"},
	"spec.FidelitySpec.Check":    {twoValues, "examples/experiments.yaml's grid of 14 check IDs"},
	"spec.DurabilitySpec.Scheme": {twoValues, "examples/durability.yaml's grid (r1 to ec10+4)"},
	"spec.DurabilitySpec.Disks":  {twoValues, "examples/durability.yaml (1024) and ci.yml's mini campaign (128)"},
	"spec.DurabilitySpec.Trials": {twoValues, "examples/durability.yaml (4) and ci.yml's mini campaign (2)"},
	"spec.OutputSpec.Log":        {twoValues, "ustore-chaos -log on and off"},
}

// inventoried are the option structs whose exported fields the settings
// table must list. spec.Spec's section fields are walked, not listed: a
// spec path is a leaf, and an override cannot set a whole section.
var inventoried = []any{
	chaos.Options{}, chaos.FleetOptions{}, core.Config{}, core.ProtectionConfig{}, fabric.Config{},
	fleet.Config{}, paxos.Config{}, workload.TrafficOptions{},
	spec.Spec{}, spec.FaultsSpec{}, spec.FailureSpec{}, spec.TrafficSpec{}, spec.FleetSpec{},
	spec.FidelitySpec{}, spec.DurabilitySpec{}, spec.OutputSpec{},
}

// notSettings are the option structs that carry no run setting, each with
// the reason.
var notSettings = map[string]string{
	"campaign.Options":        "how to run a campaign (cache, worker pool, force), not what a cell simulates",
	"disk.Params":             "calibration: a drive model's fitted Table II constants",
	"disk.DegradeParams":      "fault data: one gray fault's severity, drawn per event by the schedule",
	"placement.SpreadOptions": "perf-api: per-call arguments of placement.Spread, which perf/probes.go:346 calls",
	"policy.AutoScalerConfig": "core.Protector's one literal fills it from the protection stack's constants",
	"policy.ClassConfig":      "a tenant class's admission tier, part of a workload.TrafficOptions.Classes row",
	"workload.ClassSpec":      "a tenant class, one row of workload.TrafficOptions.Classes",
	"workload.Spec":           "an Iometer row of the paper's tables (size, read mix, pattern)",
}

// optionSuffixes mark an option struct: an exported struct type in
// internal/ whose name ends in one of them.
var optionSuffixes = []string{"Config", "Options", "Spec", "Params"}

// TestSettingsInventory holds every option struct in internal/ to the
// inventory: each is inventoried or on notSettings, a new field of an
// inventoried struct fails until it is listed with a reason class, and a
// listed field that is gone fails until its line is removed.
func TestSettingsInventory(t *testing.T) {
	structs := map[string]bool{}
	fields := map[string]bool{}
	for _, v := range inventoried {
		typ := reflect.TypeOf(v)
		structs[typ.String()] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() || typ == reflect.TypeOf(spec.Spec{}) && f.Type.Kind() == reflect.Struct {
				continue
			}
			fields[typ.String()+"."+f.Name] = true
		}
	}
	found := optionStructs(t)
	for _, name := range found {
		if _, skip := notSettings[name]; !structs[name] && !skip {
			t.Errorf("option struct %s is neither inventoried nor on notSettings: inventory its fields, or give the reason it holds no setting", name)
		}
	}
	for name, why := range notSettings {
		if !slices.Contains(found, name) {
			t.Errorf("%s is on notSettings but is no longer an option struct", name)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("%s: no reason given", name)
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
		case twoValues, runIdentity, paperMechanism:
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

// optionStructs returns the option structs declared outside tests in
// internal/, as package.Type, sorted.
func optionStructs(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	var out []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, s := range gen.Specs {
				ts := s.(*ast.TypeSpec)
				if _, isStruct := ts.Type.(*ast.StructType); !isStruct || !ts.Name.IsExported() {
					continue
				}
				for _, suffix := range optionSuffixes {
					if strings.HasSuffix(ts.Name.Name, suffix) {
						out = append(out, file.Name.Name+"."+ts.Name.Name)
						break
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
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
