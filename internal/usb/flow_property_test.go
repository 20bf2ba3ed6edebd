package usb

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ustore/internal/simtime"
)

// Max-min fairness invariants, checked against random topologies and
// demand sets:
//
//  1. Feasibility: no flow exceeds its demand; no resource exceeds its
//     capacity (within numerical tolerance).
//  2. Work conservation / Pareto efficiency: every flow is either at its
//     demand or crosses at least one saturated resource.
//  3. Max-min: a flow below its demand never receives less than another
//     flow sharing a saturated resource with it — unless that other flow
//     is itself demand-capped below the first flow's rate.
func TestPropertyMaxMinInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := simtime.NewScheduler(seed)
		fs := NewFlowSim(
			func() time.Duration { return s.Now() },
			func(d time.Duration, fn func()) func() { ev := s.After(d, fn); return ev.Cancel })

		nRes := 1 + rng.Intn(5)
		resIDs := make([]string, nRes)
		caps := make(map[string]float64, nRes)
		for i := range resIDs {
			id := string(rune('A' + i))
			resIDs[i] = id
			caps[id] = 50 + rng.Float64()*400
			fs.SetResource(id, caps[id])
		}
		nFlows := 1 + rng.Intn(8)
		flows := make([]*Flow, nFlows)
		for i := range flows {
			units := map[string]float64{}
			// Each flow crosses a random nonempty subset of resources.
			for _, id := range resIDs {
				if rng.Intn(2) == 0 {
					units[id] = 1
				}
			}
			if len(units) == 0 {
				units[resIDs[rng.Intn(nRes)]] = 1
			}
			flows[i] = &Flow{
				ID:           string(rune('a' + i)),
				Demand:       10 + rng.Float64()*300,
				UnitsPerByte: units,
			}
			fs.StartFlow(flows[i], -1, nil)
		}

		const eps = 1e-6
		// 1. Feasibility.
		usage := map[string]float64{}
		for _, f := range flows {
			if f.Rate() > f.Demand*(1+eps) {
				return false
			}
			if f.Rate() < 0 {
				return false
			}
			for id, u := range f.UnitsPerByte {
				usage[id] += f.Rate() * u
			}
		}
		saturated := map[string]bool{}
		for id, used := range usage {
			if used > caps[id]*(1+1e-4) {
				return false
			}
			if used >= caps[id]*(1-1e-4) {
				saturated[id] = true
			}
		}
		// 2. Pareto: below-demand flows must cross a saturated resource.
		for _, f := range flows {
			if f.Rate() < f.Demand*(1-1e-4) {
				crossesSaturated := false
				for id := range f.UnitsPerByte {
					if saturated[id] {
						crossesSaturated = true
					}
				}
				if !crossesSaturated {
					return false
				}
			}
		}
		// 3. Max-min comparison on shared saturated resources.
		for _, f := range flows {
			if f.Rate() >= f.Demand*(1-1e-4) {
				continue // demand-capped flows can be arbitrarily small
			}
			for _, g := range flows {
				if f == g {
					continue
				}
				shared := false
				for id := range f.UnitsPerByte {
					if saturated[id] {
						if _, ok := g.UnitsPerByte[id]; ok {
							shared = true
						}
					}
				}
				if !shared {
					continue
				}
				// g may exceed f only if g is capped by its own demand at
				// a rate f cannot reach, or g's bottleneck is elsewhere
				// and less contended. The defining max-min property: you
				// cannot raise f without lowering some g with g.rate <=
				// f.rate. We check the weaker pairwise form: if g shares
				// f's saturated bottleneck and g.rate > f.rate, then g
				// must be... equal-share violated.
				if g.Rate() > f.Rate()*(1+1e-3) && g.Rate() < g.Demand*(1-1e-4) {
					// Both are bottlenecked flows sharing a saturated
					// resource yet unequal: check whether g's rate is
					// justified by a different bottleneck — in single-
					// unit-per-byte topologies it cannot be if they share
					// f's bottleneck resource AND that resource is g's
					// bottleneck too. Conservatively require equality
					// only when their resource sets are identical.
					same := len(f.UnitsPerByte) == len(g.UnitsPerByte)
					if same {
						for id := range f.UnitsPerByte {
							if _, ok := g.UnitsPerByte[id]; !ok {
								same = false
							}
						}
					}
					if same {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(29))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: bounded flows conserve bytes — a flow started with N bytes
// moves exactly N (within tolerance) by the time its completion fires,
// regardless of how many rebalances happen mid-flight.
func TestPropertyFlowByteConservation(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := simtime.NewScheduler(seed)
		fs := NewFlowSim(
			func() time.Duration { return s.Now() },
			func(d time.Duration, fn func()) func() { ev := s.After(d, fn); return ev.Cancel })
		fs.SetResource("R", 100+rng.Float64()*200)
		n := 1 + rng.Intn(6)
		type rec struct {
			fl    *Flow
			total float64
			done  bool
		}
		recs := make([]*rec, n)
		for i := range recs {
			r := &rec{total: 1000 + rng.Float64()*1e6}
			r.fl = &Flow{
				ID:           string(rune('a' + i)),
				Demand:       20 + rng.Float64()*300,
				UnitsPerByte: map[string]float64{"R": 1},
			}
			recs[i] = r
			// Stagger starts to force rebalances mid-flight.
			delay := time.Duration(rng.Int63n(int64(time.Second)))
			s.After(delay, func() {
				fs.StartFlow(r.fl, r.total, func() { r.done = true })
			})
		}
		s.Run()
		for _, r := range recs {
			if !r.done {
				return false
			}
			if diff := r.fl.moved - r.total; diff < -1 || diff > 1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
