// Empirical failure model: bathtub-curve annual failure rates, correlated
// shared-vintage batch failures, and measured uncorrectable-read-error
// rates, after Gray & van Ingen, "Empirical Measurements of Disk Failure
// Rates and Error Rates" (MSR-TR-2005-166; PAPERS.md).
//
// The paper's cited rates are flat exponentials — the datasheet world,
// where a disk's MTTF is a constant 10 to 50 years. Field measurements
// disagree on both shape and magnitude:
//
//   - observed annualized failure rates sit at 3-6%, several times the
//     ~0.9% a 1M-hour datasheet MTTF implies (we use 3.6% as the
//     useful-life plateau);
//   - the hazard is a bathtub, not a flat line: infant mortality decays
//     over the first months, and wear-out climbs after ~5 years;
//   - failures correlate — disks bought together (same vintage, same
//     firmware, same pallet) fail together, so the independence assumption
//     under every naive durability calculation is optimistic;
//   - the advertised SATA uncorrectable-read-error rate of one per 1e14
//     bits ("one error per 10 TB read") is frightening but pessimistic:
//     moving ~2 PB Gray & van Ingen saw read-error events at roughly one
//     per 3e15 bits — ~30x better than spec, yet still certain to appear
//     in any petabyte-scale rebuild.
//
// EmpiricalModel packages those measurements as a hazard function plus
// seed-deterministic samplers. internal/spec selects it with
// `failure: {model: empirical}`, the chaos harness maps sampled failure
// ages onto an accelerated-aging schedule, and the campaign durability
// grid integrates it directly.

package faults

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Year is the unit hazard rates are quoted in (annual failure rate).
const Year = 365 * 24 * time.Hour

// Reference rates from Gray & van Ingen (documented above; the table
// tests in empirical_test.go pin the samplers against these).
const (
	// DatasheetAFR is the ~1M-hour-MTTF annual failure rate vendors quote.
	DatasheetAFR = 0.009
	// ObservedAFR is the field-observed useful-life plateau.
	ObservedAFR = 0.036
	// SpecUREBits: advertised one uncorrectable read error per 1e14 bits.
	SpecUREBits = 1e14
	// ObservedUREBits: ~2 PB moved, read-error events at roughly one per
	// 3.2e15 bits — about 30x better than the spec sheet.
	ObservedUREBits = 3.2e15
)

// EmpiricalModel is a bathtub-hazard disk failure model with correlated
// shared-vintage batches and a URE rate. All rates are annual; ages are
// time.Durations on the disk-age axis (not simulation time — callers map
// between the two when running accelerated-aging schedules).
type EmpiricalModel struct {
	// InfantAFR is the excess annual failure rate at age zero; it decays
	// exponentially with e-folding time InfantDecay. Infant mortality is
	// why the year-one failure count exceeds the plateau by >60%.
	InfantAFR   float64
	InfantDecay time.Duration
	// UsefulAFR is the flat useful-life plateau (field-observed, not
	// datasheet).
	UsefulAFR float64
	// WearOutAfter is the wear-out onset age; past it the hazard rises
	// linearly by WearOutRise per year of age.
	WearOutAfter time.Duration
	WearOutRise  float64

	// Correlated batches: disks are grouped into shared-vintage batches of
	// BatchSize (by index); when one fails, each surviving batch-mate
	// independently suffers an induced failure with probability BatchShock,
	// landing uniformly within BatchWindow of the trigger. This is the
	// vintage-shock form of the "disks bought together fail together"
	// observation.
	BatchSize   int
	BatchShock  float64
	BatchWindow time.Duration

	// UREBits is the expected bits read per uncorrectable read error
	// (larger = healthier media). Zero disables the URE model.
	UREBits float64
}

// DefaultEmpirical returns the model calibrated to the Gray & van Ingen
// measurements documented at the top of this file.
func DefaultEmpirical() *EmpiricalModel {
	return &EmpiricalModel{
		InfantAFR:    0.10,
		InfantDecay:  90 * 24 * time.Hour,
		UsefulAFR:    ObservedAFR,
		WearOutAfter: 5 * Year,
		WearOutRise:  0.03,
		BatchSize:    16,
		BatchShock:   0.08,
		BatchWindow:  30 * 24 * time.Hour,
		UREBits:      ObservedUREBits,
	}
}

// Hazard returns the instantaneous annual failure rate at the given disk
// age: useful-life plateau + decaying infant excess + linear wear-out.
func (m *EmpiricalModel) Hazard(age time.Duration) float64 {
	h := m.UsefulAFR
	if m.InfantAFR > 0 && m.InfantDecay > 0 {
		h += m.InfantAFR * math.Exp(-float64(age)/float64(m.InfantDecay))
	}
	if m.WearOutRise > 0 && age > m.WearOutAfter {
		h += m.WearOutRise * float64(age-m.WearOutAfter) / float64(Year)
	}
	return h
}

// CumulativeHazard integrates Hazard over [from, to] in closed form; the
// probability a disk of age `from` survives to `to` is exp(-Λ).
func (m *EmpiricalModel) CumulativeHazard(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	years := func(d time.Duration) float64 { return float64(d) / float64(Year) }
	lam := m.UsefulAFR * years(to-from)
	if m.InfantAFR > 0 && m.InfantDecay > 0 {
		tau := years(m.InfantDecay)
		lam += m.InfantAFR * tau *
			(math.Exp(-years(from)/tau) - math.Exp(-years(to)/tau))
	}
	if m.WearOutRise > 0 && to > m.WearOutAfter {
		a := math.Max(years(from), years(m.WearOutAfter))
		b := years(to)
		w := years(m.WearOutAfter)
		lam += m.WearOutRise / 2 * ((b-w)*(b-w) - (a-w)*(a-w))
	}
	return lam
}

// FailuresPer1kDiskYears returns the analytic expected failure count per
// 1000 disks during their year `year` of life (1-based), without
// replacement: 1000 * P(survive to year start) * P(fail within the year).
// The table tests pin the fleet sampler against these numbers.
func (m *EmpiricalModel) FailuresPer1kDiskYears(year int) float64 {
	from := time.Duration(year-1) * Year
	to := time.Duration(year) * Year
	pSurvive := math.Exp(-m.CumulativeHazard(0, from))
	pFail := 1 - math.Exp(-m.CumulativeHazard(from, to))
	return 1000 * pSurvive * pFail
}

// SampleLife draws the next failure age of one disk currently aged
// startAge, looking no further than horizon (on the age axis). ok=false
// means the disk survives the horizon. Thinning against the hazard's
// maximum over the window keeps the draw exact for any bathtub shape.
func (m *EmpiricalModel) SampleLife(rng *rand.Rand, startAge, horizon time.Duration) (time.Duration, bool) {
	if horizon <= startAge {
		return 0, false
	}
	// The hazard is a sum of a decreasing, a constant, and an increasing
	// term, so its max over [startAge, horizon] is bounded by the sum of
	// each term's max at the interval's ends.
	bound := m.UsefulAFR + m.Hazard(startAge) + m.Hazard(horizon) // loose but safe
	age := startAge
	for {
		u := rng.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		age += time.Duration(-math.Log(u) / bound * float64(Year))
		if age >= horizon {
			return 0, false
		}
		if rng.Float64() < m.Hazard(age)/bound {
			return age, true
		}
	}
}

// FleetFailure is one failure event on the fleet age axis.
type FleetFailure struct {
	Disk    int
	At      time.Duration // age-axis time since fleet turn-up
	Induced bool          // triggered by a batch-mate (vintage shock)
}

// SampleFleet draws every failure of a fleet of `disks` same-vintage disks
// over [0, horizon) on the age axis. A failed disk is replaced with fresh
// media `repair` after its failure (repair <= 0 leaves it dead). Base
// failures come from the bathtub hazard per disk; each base failure then
// shocks its batch-mates with probability BatchShock (induced failures do
// not cascade further — a second-order effect the measurements cannot
// distinguish anyway). The result is sorted by (At, Disk) and is a pure
// function of the rng stream.
func (m *EmpiricalModel) SampleFleet(rng *rand.Rand, disks int, horizon, repair time.Duration) []FleetFailure {
	var out []FleetFailure
	// Base draws, disk by disk in index order: a renewal process when
	// replacement is on (the replacement is fresh media, age zero).
	for d := 0; d < disks; d++ {
		turnUp := time.Duration(0) // fleet time this disk's current media started
		for {
			age, ok := m.SampleLife(rng, 0, horizon-turnUp)
			if !ok {
				break
			}
			at := turnUp + age
			out = append(out, FleetFailure{Disk: d, At: at})
			if repair <= 0 {
				break
			}
			turnUp = at + repair
			if turnUp >= horizon {
				break
			}
		}
	}
	if m.BatchShock > 0 && m.BatchSize >= 2 {
		// Vintage shocks: iterate base failures in (At, Disk) order so the
		// Bernoulli stream is deterministic, shock batch-mates in index
		// order.
		base := append([]FleetFailure(nil), out...)
		sort.Slice(base, func(i, j int) bool {
			if base[i].At != base[j].At {
				return base[i].At < base[j].At
			}
			return base[i].Disk < base[j].Disk
		})
		for _, f := range base {
			batch := f.Disk / m.BatchSize
			lo, hi := batch*m.BatchSize, (batch+1)*m.BatchSize
			if hi > disks {
				hi = disks
			}
			for d := lo; d < hi; d++ {
				if d == f.Disk {
					continue
				}
				if rng.Float64() < m.BatchShock {
					at := f.At + time.Duration(rng.Float64()*float64(m.BatchWindow))
					if at < horizon {
						out = append(out, FleetFailure{Disk: d, At: at, Induced: true})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Disk < out[j].Disk
	})
	return out
}

// URESectorRate converts the model's bits-per-error rate into the
// per-4KiB-sector corruption probability internal/disk consumes
// (disk.SetURERate): p = 1 - (1 - 1/UREBits)^(4096*8) ≈ 32768/UREBits.
func (m *EmpiricalModel) URESectorRate() float64 {
	if m.UREBits <= 0 {
		return 0
	}
	return -math.Expm1(4096 * 8 * math.Log1p(-1/m.UREBits))
}
