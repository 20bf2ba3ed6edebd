package campaign

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"ustore/internal/cost"
	"ustore/internal/faults"
	"ustore/internal/spec"
)

// DurabilityResult is one durability-vs-cost grid cell: a disk population
// under the configured failure model, protected by the scheme, Monte
// Carlo'd over Trials independent fleets. Loss semantics follow the
// classic reliability sweep: a protection group loses data when the
// overlapping-failure count exceeds its tolerance before repair finishes,
// or when an uncorrectable read error strikes a rebuild running at the
// group's last surviving redundancy.
type DurabilityResult struct {
	Scheme   string  `json:"scheme"`
	Width    int     `json:"width"`    // disks per protection group
	Tolerate int     `json:"tolerate"` // overlapping failures survived
	Groups   int     `json:"groups"`
	Trials   int     `json:"trials"`
	Years    float64 `json:"years"`

	DiskFailures  int `json:"disk_failures"`  // raw media failures sampled
	LossIncidents int `json:"loss_incidents"` // overlap-exceeded events
	URELosses     int `json:"ure_losses"`     // last-redundancy rebuild URE hits

	// AnnualLossRate is loss incidents per population-year; Nines is the
	// durability exponent -log10(P[any loss in a year]). When no trial
	// lost data, Nines is the resolution bound of the experiment (the
	// value a half-incident would produce) and NinesIsBound is set.
	AnnualLossRate float64 `json:"annual_loss_rate"`
	Nines          float64 `json:"nines"`
	NinesIsBound   bool    `json:"nines_is_bound"`

	// Cost side: usable capacity after protection overhead, and the
	// paper's UStore CapEx spread over it.
	RawTB            float64 `json:"raw_tb"`
	UsableTB         float64 `json:"usable_tb"`
	Overhead         float64 `json:"overhead"`
	CapExPerUsableTB float64 `json:"capex_per_usable_tb"`
}

// Every durability cell models the same disks over the same horizon:
// durabilityDiskTB-TB drives watched for durabilityYears, each failed one
// rebuilt durabilityRepair after it fails.
const (
	durabilityDiskTB = 4
	durabilityYears  = 5
	durabilityRepair = 24 * time.Hour
)

// RunDurability executes one durability cell. Everything is derived from
// the spec: same spec, byte-identical result.
func RunDurability(s *spec.Spec) (*DurabilityResult, error) {
	d := s.Durability
	width, tol, err := spec.ParseScheme(d.Scheme)
	if err != nil {
		return nil, err
	}
	model := faults.DefaultEmpirical()
	if s.Failure.Model == "constant" {
		// The constant model is the flat exponential at the field AFR: the
		// same plateau, no infant mortality, no wear-out, no batch shocks.
		model = &faults.EmpiricalModel{UsefulAFR: model.UsefulAFR, UREBits: model.UREBits}
	}
	res := &DurabilityResult{
		Scheme: d.Scheme, Width: width, Tolerate: tol,
		Groups: d.Disks / width, Trials: d.Trials, Years: durabilityYears,
	}
	if res.Groups == 0 {
		return nil, fmt.Errorf("durability: %d disks cannot fill one %s group (width %d)", d.Disks, d.Scheme, width)
	}

	// A rebuild at last redundancy reads width-tol surviving disks' worth
	// of sectors; one URE there is an unrecoverable sector.
	sectorsRead := float64(width-tol) * durabilityDiskTB * 1e12 / 4096
	pURE := 1.0
	if r := model.URESectorRate(); r > 0 {
		pURE = -math.Expm1(sectorsRead * math.Log1p(-r))
	} else {
		pURE = 0
	}

	for trial := 0; trial < d.Trials; trial++ {
		rng := rand.New(rand.NewSource(s.Seed + int64(trial)*0x9e3779b9))
		events := model.SampleFleet(rng, res.Groups*width, durabilityYears*faults.Year, durabilityRepair)
		res.DiskFailures += len(events)
		// Sweep the failures chronologically, tracking each group's open
		// outage windows [At, At+durabilityRepair). RNG draws happen only
		// inside the sweep's deterministic event order.
		open := make([][]time.Duration, res.Groups) // repair-completion times
		for _, ev := range events {
			g := ev.Disk / width
			ends := open[g][:0]
			for _, e := range open[g] {
				if e > ev.At {
					ends = append(ends, e)
				}
			}
			concurrent := len(ends) // pre-existing overlapping outages
			ends = append(ends, ev.At+durabilityRepair)
			open[g] = ends
			switch {
			case concurrent+1 > tol:
				res.LossIncidents++
			case concurrent+1 == tol && tol > 0:
				// Last redundancy: the rebuild must read every surviving
				// sector cleanly or lose the unreadable stripe.
				if pURE > 0 && rng.Float64() < pURE {
					res.URELosses++
					res.LossIncidents++
				}
			}
		}
	}

	trialYears := float64(d.Trials) * durabilityYears
	res.AnnualLossRate = float64(res.LossIncidents) / trialYears
	rate := res.AnnualLossRate
	if res.LossIncidents == 0 {
		rate = 0.5 / trialYears // experiment resolution, not an observation
		res.NinesIsBound = true
	}
	res.Nines = -math.Log10(-math.Expm1(-rate))

	res.RawTB = float64(d.Disks) * durabilityDiskTB
	overhead, err := spec.SchemeOverhead(d.Scheme)
	if err != nil {
		return nil, err
	}
	res.Overhead = overhead
	res.UsableTB = res.RawTB / overhead
	capex := cost.UStore().Evaluate(res.RawTB * 1e12).CapEx
	res.CapExPerUsableTB = float64(capex) / res.UsableTB
	return res, nil
}

// Text renders the cell's stamped summary block.
func (r *DurabilityResult) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "durability %s: %d groups x %d disks, tolerate %d, %.0fy x %d trials\n",
		r.Scheme, r.Groups, r.Width, r.Tolerate, r.Years, r.Trials)
	fmt.Fprintf(&b, "  failures %d media, %d loss incidents (%d via rebuild URE)\n",
		r.DiskFailures, r.LossIncidents, r.URELosses)
	nines := fmt.Sprintf("%.1f nines", r.Nines)
	if r.NinesIsBound {
		nines = fmt.Sprintf(">%.1f nines (no losses at trial resolution)", r.Nines)
	}
	fmt.Fprintf(&b, "  durability %s, annual loss rate %.4g/population-year\n", nines, r.AnnualLossRate)
	fmt.Fprintf(&b, "  capacity %.0fTB raw -> %.0fTB usable (%.2fx), $%.0f CapEx/usable TB\n",
		r.RawTB, r.UsableTB, r.Overhead, r.CapExPerUsableTB)
	return b.String()
}
