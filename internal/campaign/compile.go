// Package campaign sweeps declarative experiment specs (internal/spec)
// across the existing chaos, traffic, fleet, fidelity, and durability
// engines: a spec file's parameter grid expands into cells, each cell
// compiles into the engine's option struct, runs on the shared worker
// pool, and lands in a byte-deterministic stamped report. Cells are keyed
// by their content hash, so a campaign directory doubles as a result
// cache — re-running an unchanged spec executes nothing and reproduces
// the report byte for byte, while editing one grid axis re-runs exactly
// the affected cells.
package campaign

import (
	"fmt"
	"time"

	"ustore/internal/chaos"
	"ustore/internal/obs"
	"ustore/internal/spec"
)

// Scenario is a compiled faults-, traffic- or fleet-mode spec: the option
// struct of the engine its mode selects (exactly one is set). It is the one
// road from a Spec to a simulation — campaign cells and every ustore-chaos
// run go Compile -> Run -> Outcome — so two specs with equal hashes run
// identical simulations. The lowering is total: every spec field that
// reaches a mode has exactly one option field.
type Scenario struct {
	Chaos *chaos.Options      // modes "faults" and "traffic"
	Fleet *chaos.FleetOptions // mode "fleet"
}

// Compile lowers a spec onto its engine's options.
func Compile(s *spec.Spec) (Scenario, error) {
	switch s.Mode {
	case "faults", "traffic":
		o := chaos.DefaultOptions(s.Seed, time.Duration(s.Days*float64(24*time.Hour)))
		o.HostCrashes = s.Faults.HostCrashes
		o.DiskFaults = s.Faults.Disks
		o.HubFaults = s.Faults.Hubs
		o.NetFaults = s.Faults.Net
		o.Corruptions = s.Faults.Corruptions
		o.GrayFaults = s.Faults.Gray
		o.Mitigation = s.Faults.Mitigation
		o.Pairs = s.Faults.Pairs
		o.BlocksPerSpace = s.Faults.BlocksPerSpace
		if s.Mode == "traffic" {
			o.Tenants = true
			o.Storm = s.Traffic.Storm
			o.Protect = s.Traffic.Protect
			o.StreamQuantiles = s.Traffic.StreamQuantiles
		}
		if s.Failure.Model == "empirical" {
			o.Empirical = s.EmpiricalModel()
			o.AgeYears = s.Failure.AgeYears
		}
		return Scenario{Chaos: &o}, nil
	case "fleet":
		return Scenario{Fleet: &chaos.FleetOptions{
			Seed:              s.Seed,
			Units:             s.Fleet.Units,
			Shards:            s.Fleet.Shards,
			Clients:           s.Fleet.Clients,
			Volumes:           s.Fleet.Volumes,
			UnitLoss:          s.Fleet.UnitLoss,
			EngineWorkers:     s.Fleet.EngineWorkers,
			ReplicaCrashes:    s.Fleet.Crashes,
			Partitions:        s.Fleet.Partitions,
			SlotMoves:         s.Fleet.SlotMoves,
			FaultWindow:       time.Duration(s.Fleet.FaultWindowSec * float64(time.Second)),
			InjectSkipRedrive: s.Fleet.SkipRedrive,
		}}, nil
	}
	return Scenario{}, fmt.Errorf("mode %q has no simulation engine to compile onto", s.Mode)
}

// Run executes the scenario on its engine. rec, when non-nil, collects the
// run's metrics and trace (a fresh Recorder per run).
func (sc Scenario) Run(rec *obs.Recorder) (*Outcome, error) {
	if sc.Fleet != nil {
		o := *sc.Fleet
		o.Recorder = rec
		rep, err := chaos.RunFleet(o)
		if err != nil {
			return nil, err
		}
		return FleetOutcome(rep), nil
	}
	o := *sc.Chaos
	o.Recorder = rec
	rep, err := chaos.Run(o)
	if err != nil {
		return nil, err
	}
	return ChaosOutcome(rep), nil
}

// Outcome is a finished run: what every consumer reads off either engine's
// report, and the report itself (exactly one is set).
type Outcome struct {
	Summary    string // the per-run block ustore-chaos prints and a cell stores
	Log        []string
	Violations []string
	Chaos      *chaos.Report
	Fleet      *chaos.FleetReport
}

// ChaosOutcome and FleetOutcome wrap an engine report — Run's, or the
// minimized run a minimizer hands back in its place.
func ChaosOutcome(r *chaos.Report) *Outcome {
	return &Outcome{Summary: r.SummaryText(), Log: r.Log, Violations: r.Violations, Chaos: r}
}

func FleetOutcome(r *chaos.FleetReport) *Outcome {
	return &Outcome{Summary: r.SummaryText(), Log: r.Log, Violations: r.Violations, Fleet: r}
}
