package chaos

import (
	"math/rand"
	"time"

	"ustore/internal/faults"
)

// simDiskRepair is the operator swap time a failed disk spends out of the
// cluster under the empirical schedule, in simulated time. Fixed (rather
// than the uniform window the constant model draws) so the renewal model
// inside faults.SampleFleet and the emitted replace events agree: the
// sampler guarantees a disk's next failure lands after its replacement.
const simDiskRepair = 5 * time.Hour

// empiricalAge returns the media-age horizon the run compresses.
func empiricalAge(o Options) time.Duration {
	age := o.AgeYears
	if age <= 0 {
		age = 5
	}
	return time.Duration(age * float64(faults.Year))
}

// empiricalURERate is the per-sector URE probability every disk is armed
// with: the model's measured rate, accelerated by the same factor that
// compresses media age into the run window.
func empiricalURERate(o Options) float64 {
	return o.Empirical.URESectorRate() * float64(empiricalAge(o)) / float64(o.Duration)
}

// empiricalDiskSchedule draws the disk fail/replace events from the
// empirical failure model and maps them from media-age time onto the
// run's duration. Its rand stream is derived from the seed but separate
// from genSchedule's, so enabling the model perturbs no other family.
func empiricalDiskSchedule(o Options, disks []string) []Fault {
	rng := rand.New(rand.NewSource(o.Seed ^ 0x6d2e9a51c3b7))
	horizon := empiricalAge(o)
	scale := float64(horizon) / float64(o.Duration)
	repairAge := time.Duration(float64(simDiskRepair) * scale)
	var out []Fault
	for _, ev := range o.Empirical.SampleFleet(rng, len(disks), horizon, repairAge) {
		at := time.Duration(float64(ev.At) / scale)
		if at >= o.Duration {
			continue
		}
		end := at + simDiskRepair
		if end > o.Duration {
			end = o.Duration
		}
		out = append(out,
			Fault{At: at, Kind: FaultDiskFail, A: disks[ev.Disk]},
			Fault{At: end, Kind: FaultDiskReplace, A: disks[ev.Disk]})
	}
	return out
}
