// Package faults is UStore's failure model: the rates the paper cites
// (§IV-E), the host crash clock that injects the dominant one, and the
// field-measured disk model the durability runs draw from.
//
// The paper cites hosts failing with an MTTF of about 3.4 months (software
// and network issues dominate), disks every 10-50 years, and physical
// interconnects at disk-like rates (Ford et al. OSDI'10; Jiang et al.
// FAST'08). HostMTTF is the one of those rates a run reads, and
// InjectHostCrashes drives it; disk failures come from EmpiricalModel
// (empirical.go), Gray & van Ingen's measured bathtub, batch and URE
// rates. Scripted schedules and gray (fail-slow) faults are
// internal/chaos's job.
package faults

import (
	"math"
	"time"

	"ustore/internal/simtime"
)

// HostMTTF is the paper's ~3.4-month host MTTF.
const HostMTTF = 3.4 * 30 * 24 * time.Hour

// InjectHostCrashes arms one crash clock per host. Each clock draws an
// exponential wait with mean mttf from the scheduler's RNG when armed,
// calls crash, calls restore repair later, and re-arms. The clocks run for
// as long as the scheduler does.
func InjectHostCrashes(s *simtime.Scheduler, hosts []string, mttf, repair time.Duration, crash, restore func(host string)) {
	var arm func(h string)
	arm = func(h string) {
		u := s.Rand().Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		s.FireAfter(time.Duration(-math.Log(u)*float64(mttf)), func() {
			crash(h)
			s.FireAfter(repair, func() {
				restore(h)
				arm(h)
			})
		})
	}
	for _, h := range hosts {
		arm(h)
	}
}
