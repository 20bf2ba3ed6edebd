package spec

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ustore/internal/faults"
)

// Spec is one fully-resolved experiment description. Field names in the
// document are the snake_case forms of these (e.g. blocks_per_space);
// every field is optional except mode, and defaults are chosen so a
// two-line spec runs the same scenario the CLI defaults would.
//
// A Spec is what gets hashed: the canonical cell identity is the
// sha256 of the decoded, defaulted struct (see Canonical/Hash), never the
// raw document bytes.
type Spec struct {
	Name string `json:"name"`
	// Mode selects the run family: "faults" (chaos fault schedule),
	// "traffic" (multi-tenant storm engine), "fleet" (sharded control
	// plane), "fidelity" (paper-fidelity golden checks), "durability"
	// (Monte-Carlo durability-vs-cost cell over the failure model).
	Mode string  `json:"mode"`
	Seed int64   `json:"seed"`
	Days float64 `json:"days"` // simulated fault-phase days (faults mode)

	Faults     FaultsSpec     `json:"faults"`
	Failure    FailureSpec    `json:"failure"`
	Traffic    TrafficSpec    `json:"traffic"`
	Fleet      FleetSpec      `json:"fleet"`
	Fidelity   FidelitySpec   `json:"fidelity"`
	Durability DurabilitySpec `json:"durability"`
	Output     OutputSpec     `json:"output"`
}

// FaultsSpec shapes a faults-mode run: which families the schedule draws
// from and the replicated workload dimensions.
type FaultsSpec struct {
	HostCrashes bool `json:"host_crashes"`
	Disks       bool `json:"disks"`
	Hubs        bool `json:"hubs"`
	Net         bool `json:"net"`
	Corruptions bool `json:"corruptions"`
	Gray        bool `json:"gray"`
	Mitigation  bool `json:"mitigation"`

	Pairs          int `json:"pairs"`
	BlocksPerSpace int `json:"blocks_per_space"`
}

// FailureSpec selects and parameterizes the failure model the run sweeps
// over. "constant" is the seed behaviour (flat exponential lifetimes from
// the paper's MTTF citations); "empirical" is the Gray & van Ingen model
// (faults.EmpiricalModel): bathtub AFR, correlated vintage batches,
// measured URE rates. Rate fields left out of the document inherit the
// calibrated defaults of faults.DefaultEmpirical.
type FailureSpec struct {
	Model string `json:"model"` // "constant" | "empirical"
	// AgeYears maps the simulated run window onto this many years of disk
	// aging (accelerated aging), so a 2-simulated-day faults run can sweep
	// a 5-year bathtub.
	AgeYears float64 `json:"age_years"`

	InfantAFR       float64 `json:"infant_afr"`
	InfantDecayDays float64 `json:"infant_decay_days"`
	UsefulAFR       float64 `json:"useful_afr"`
	WearOutYears    float64 `json:"wear_out_years"`
	WearOutRise     float64 `json:"wear_out_rise"`

	BatchSize       int     `json:"batch_size"`
	BatchShock      float64 `json:"batch_shock"`
	BatchWindowDays float64 `json:"batch_window_days"`

	// UREBits is the expected bits read per uncorrectable read error:
	// faults.SpecUREBits (1e14) is the datasheet, faults.ObservedUREBits
	// (3.2e15) the measurement. The strings "spec" and "observed" are
	// accepted in the document.
	UREBits float64 `json:"ure_bits"`
}

// TrafficSpec shapes a traffic-mode run.
type TrafficSpec struct {
	Storm           bool `json:"storm"`
	Protect         bool `json:"protect"`
	StreamQuantiles bool `json:"stream_quantiles"`
}

// FleetSpec shapes a fleet-mode run. The fault fields mirror the
// ustore-chaos fleet fault flags, so a campaign grid can sweep
// crash/partition/migration mixes cell by cell: any of crashes,
// partitions or slot_moves being positive adds the seeded transient-fault
// phase between load and verify.
type FleetSpec struct {
	Units         int  `json:"units"`
	Shards        int  `json:"shards"`
	Clients       int  `json:"clients"`
	Volumes       int  `json:"volumes"`
	UnitLoss      bool `json:"unit_loss"`
	EngineWorkers int  `json:"engine_workers"` // cap on goroutines per engine window (0 = derived from the host); results are byte-identical at any value

	// Crashes is the number of shard-replica crash/restart cycles.
	Crashes int `json:"crashes"`
	// Partitions is the number of partition/heal (or leader-isolation)
	// windows.
	Partitions int `json:"partitions"`
	// SlotMoves is the number of schedule-driven slot migrations (the first
	// straddled by a source-leader crash; needs shards >= 2 to take effect).
	SlotMoves int `json:"slot_moves"`
	// FaultWindowSec is the fault-phase length in simulated seconds
	// (0 = the harness default).
	FaultWindowSec float64 `json:"fault_window_sec"`
	// SkipRedrive plants the skipped-ledger-re-drive recovery bug.
	SkipRedrive bool `json:"skip_redrive"`
}

// FidelitySpec shapes a fidelity-mode run: one named paper-fidelity check
// per cell ("" runs the whole suite in one cell). Check IDs are the ones
// internal/bench.FidelityChecks declares (e.g. "table1-ustore-capex").
type FidelitySpec struct {
	Check string `json:"check"`
}

// DurabilitySpec shapes a durability-vs-cost Monte-Carlo cell: a
// population of disks under the selected failure model, protected by
// Scheme, with failed disks rebuilt after RepairHours. The cell reports
// data-loss incidents, annual loss probability (as nines of durability),
// and usable-capacity cost from the paper's CapEx model.
type DurabilitySpec struct {
	// Scheme is "r<N>" (N-way replication, e.g. "r3") or "ec<K>+<M>"
	// (K data + M parity erasure coding, e.g. "ec8+3").
	Scheme      string  `json:"scheme"`
	Disks       int     `json:"disks"`
	DiskTB      float64 `json:"disk_tb"`
	Years       float64 `json:"years"`
	RepairHours float64 `json:"repair_hours"`
	Trials      int     `json:"trials"`
}

// OutputSpec selects what each cell's stamped output carries beyond the
// summary: the full event log, and/or a metrics snapshot.
type OutputSpec struct {
	Log bool `json:"log"`
}

// Default returns the spec every document starts from before its fields
// are applied: the CLI-default faults run with the constant failure model.
func Default() *Spec {
	em := faults.DefaultEmpirical()
	return &Spec{
		Mode: "faults",
		Seed: 1,
		Days: 2,
		Faults: FaultsSpec{
			HostCrashes: true, Disks: true, Hubs: true, Net: true, Corruptions: true,
			Pairs: 4, BlocksPerSpace: 8,
		},
		Failure: FailureSpec{
			Model:           "constant",
			AgeYears:        5,
			InfantAFR:       em.InfantAFR,
			InfantDecayDays: float64(em.InfantDecay) / float64(24*time.Hour),
			UsefulAFR:       em.UsefulAFR,
			WearOutYears:    float64(em.WearOutAfter) / float64(faults.Year),
			WearOutRise:     em.WearOutRise,
			BatchSize:       em.BatchSize,
			BatchShock:      em.BatchShock,
			BatchWindowDays: float64(em.BatchWindow) / float64(24*time.Hour),
			UREBits:         em.UREBits,
		},
		Fleet: FleetSpec{Units: 8, Shards: 1},
		Durability: DurabilitySpec{
			Scheme: "r3", Disks: 1024, DiskTB: 4, Years: 5, RepairHours: 24, Trials: 4,
		},
	}
}

// Modes lists the valid mode values.
var Modes = []string{"faults", "traffic", "fleet", "fidelity", "durability"}

// Validate rejects semantically impossible specs (shape errors are the
// decoder's job and carry positions; these are value errors).
func (s *Spec) Validate() error {
	ok := false
	for _, m := range Modes {
		if s.Mode == m {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("spec %q: unknown mode %q (want one of %s)", s.Name, s.Mode, strings.Join(Modes, ", "))
	}
	if s.Days <= 0 {
		return fmt.Errorf("spec %q: days must be positive", s.Name)
	}
	if s.Mode == "faults" && (s.Faults.Pairs <= 0 || s.Faults.BlocksPerSpace <= 0) {
		return fmt.Errorf("spec %q: faults.pairs and faults.blocks_per_space must be positive", s.Name)
	}
	switch s.Failure.Model {
	case "constant", "empirical":
	default:
		return fmt.Errorf("spec %q: failure.model %q (want constant or empirical)", s.Name, s.Failure.Model)
	}
	if s.Failure.Model == "empirical" {
		if s.Failure.AgeYears <= 0 {
			return fmt.Errorf("spec %q: failure.age_years must be positive", s.Name)
		}
		if err := s.EmpiricalModel().Validate(); err != nil {
			return fmt.Errorf("spec %q: %w", s.Name, err)
		}
	}
	if s.Mode == "fleet" {
		fl := s.Fleet
		if fl.Units <= 0 || fl.Shards <= 0 {
			return fmt.Errorf("spec %q: fleet.units and fleet.shards must be positive", s.Name)
		}
		if fl.Crashes < 0 || fl.Partitions < 0 || fl.SlotMoves < 0 || fl.FaultWindowSec < 0 {
			return fmt.Errorf("spec %q: fleet fault fields must be non-negative", s.Name)
		}
		if fl.SlotMoves > 0 && fl.Shards < 2 {
			return fmt.Errorf("spec %q: fleet.slot_moves needs fleet.shards >= 2 (a single shard has nowhere to move slots)", s.Name)
		}
	}
	if s.Mode == "durability" {
		d := s.Durability
		if _, _, err := ParseScheme(d.Scheme); err != nil {
			return fmt.Errorf("spec %q: %w", s.Name, err)
		}
		if d.Disks <= 0 || d.Years <= 0 || d.DiskTB <= 0 || d.RepairHours <= 0 || d.Trials <= 0 {
			return fmt.Errorf("spec %q: durability dimensions must be positive", s.Name)
		}
	}
	return nil
}

// EmpiricalModel materializes the failure section as a faults model.
func (s *Spec) EmpiricalModel() *faults.EmpiricalModel {
	f := s.Failure
	return &faults.EmpiricalModel{
		InfantAFR:    f.InfantAFR,
		InfantDecay:  time.Duration(f.InfantDecayDays * float64(24*time.Hour)),
		UsefulAFR:    f.UsefulAFR,
		WearOutAfter: time.Duration(f.WearOutYears * float64(faults.Year)),
		WearOutRise:  f.WearOutRise,
		BatchSize:    f.BatchSize,
		BatchShock:   f.BatchShock,
		BatchWindow:  time.Duration(f.BatchWindowDays * float64(24*time.Hour)),
		UREBits:      f.UREBits,
	}
}

// ParseScheme parses a durability protection scheme: "r<N>" replication
// keeps N full copies (tolerates N-1 overlapping failures, raw overhead
// N); "ec<K>+<M>" keeps K data + M parity fragments (tolerates M, raw
// overhead (K+M)/K).
func ParseScheme(s string) (width, tolerate int, err error) {
	if n, ok := strings.CutPrefix(s, "r"); ok {
		r, aerr := strconv.Atoi(n)
		if aerr != nil || r < 1 || r > 16 {
			return 0, 0, fmt.Errorf("bad replication scheme %q (want r1..r16)", s)
		}
		return r, r - 1, nil
	}
	if body, ok := strings.CutPrefix(s, "ec"); ok {
		k, m, found := strings.Cut(body, "+")
		if found {
			kd, e1 := strconv.Atoi(k)
			mp, e2 := strconv.Atoi(m)
			if e1 == nil && e2 == nil && kd >= 1 && kd <= 32 && mp >= 1 && mp <= 8 {
				return kd + mp, mp, nil
			}
		}
		return 0, 0, fmt.Errorf("bad erasure-coding scheme %q (want ec<K>+<M>, e.g. ec8+3)", s)
	}
	return 0, 0, fmt.Errorf("bad protection scheme %q (want r<N> or ec<K>+<M>)", s)
}

// SchemeOverhead returns the raw-over-usable capacity factor of a scheme.
func SchemeOverhead(s string) (float64, error) {
	width, tol, err := ParseScheme(s)
	if err != nil {
		return 0, err
	}
	data := width - tol
	return float64(width) / float64(data), nil
}
