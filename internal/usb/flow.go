package usb

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// This file implements a fluid-flow bandwidth model with max-min fair
// sharing, used for the paper's throughput experiments (Table II columns,
// Figure 5, and the 540/2160 MB/s duplex aggregates).
//
// Each active workload stream is a Flow with a standalone demand (the rate a
// single disk would sustain for that workload, from the calibrated disk
// model) and a path of Resources it consumes: the per-direction byte
// capacity of every USB link from the disk's bridge up to the host root
// port, and — for small transfers — the host controller's command dispatch
// capacity. Rates are assigned by progressive filling (water-filling): all
// unfrozen flows rise together until a resource saturates, flows through
// that resource freeze, repeat. This is the standard max-min fair
// allocation TCP-like duplex links converge to.

// Resource is a capacity-constrained element of the data path.
type Resource struct {
	// ID names the resource, e.g. "link:hub2->root:h1/up" or "cmd:h1".
	ID string
	// Capacity is in units/sec (bytes/sec for links, commands/sec for
	// command dispatch).
	Capacity float64
}

// Flow is one stream's demand over a set of resources.
type Flow struct {
	ID string
	// Demand is the flow's standalone rate in bytes/sec.
	Demand float64
	// UnitsPerByte maps resource ID -> how many units of that resource one
	// byte of this flow consumes. Links are 1.0; the command resource is
	// 1/transferSize (one command per transfer).
	UnitsPerByte map[string]float64

	// Remaining bytes to move; <0 means open-ended (runs until removed).
	remaining float64
	rate      float64
	done      func()
	lastTick  time.Duration
	moved     float64 // bytes moved so far
}

// Rate returns the flow's current allocated rate in bytes/sec.
func (f *Flow) Rate() float64 { return f.rate }

// FlowSim owns resources and flows and advances them on the simulation
// scheduler.
type FlowSim struct {
	clock     func() time.Duration
	schedule  func(time.Duration, func()) func() // returns cancel
	resources map[string]*Resource
	flows     map[string]*Flow
	nextEvent func() // cancel for pending completion event
}

// NewFlowSim creates a flow simulator. schedule must return a cancel func
// for the scheduled event.
func NewFlowSim(clock func() time.Duration, schedule func(time.Duration, func()) func()) *FlowSim {
	return &FlowSim{
		clock:     clock,
		schedule:  schedule,
		resources: make(map[string]*Resource),
		flows:     make(map[string]*Flow),
	}
}

// SetResource creates or updates a resource capacity.
func (fs *FlowSim) SetResource(id string, capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("usb: non-positive capacity %v for %s", capacity, id))
	}
	if r, ok := fs.resources[id]; ok {
		r.Capacity = capacity
	} else {
		fs.resources[id] = &Resource{ID: id, Capacity: capacity}
	}
	fs.rebalance()
}

// StartFlow adds a flow moving totalBytes (or open-ended if totalBytes < 0)
// and rebalances. done fires when the flow finishes naturally.
func (fs *FlowSim) StartFlow(f *Flow, totalBytes float64, done func()) {
	if f.Demand <= 0 {
		panic(fmt.Sprintf("usb: flow %s has non-positive demand", f.ID))
	}
	if _, dup := fs.flows[f.ID]; dup {
		panic(fmt.Sprintf("usb: duplicate flow id %s", f.ID))
	}
	for rid := range f.UnitsPerByte {
		if _, ok := fs.resources[rid]; !ok {
			panic(fmt.Sprintf("usb: flow %s references unknown resource %s", f.ID, rid))
		}
	}
	f.remaining = totalBytes
	f.done = done
	f.lastTick = fs.clock()
	fs.flows[f.ID] = f
	fs.rebalance()
}

// StopFlow removes a flow (its done callback does not fire).
func (fs *FlowSim) StopFlow(id string) {
	if _, ok := fs.flows[id]; !ok {
		return
	}
	fs.settle()
	delete(fs.flows, id)
	fs.rebalance()
}

// settle credits progress at current rates since the last settle.
func (fs *FlowSim) settle() {
	now := fs.clock()
	for _, f := range fs.flows {
		dt := (now - f.lastTick).Seconds()
		if dt > 0 {
			progressed := f.rate * dt
			f.moved += progressed
			if f.remaining >= 0 {
				f.remaining -= progressed
				if f.remaining < 1e-6 {
					f.remaining = 0
				}
			}
		}
		f.lastTick = now
	}
}

// rebalance recomputes max-min fair rates and schedules the next completion.
func (fs *FlowSim) rebalance() {
	fs.settle()
	if fs.nextEvent != nil {
		fs.nextEvent()
		fs.nextEvent = nil
	}
	fs.assignRates()

	// Find the earliest finishing bounded flow.
	var nextID string
	nextAt := math.Inf(1)
	for id, f := range fs.flows {
		if f.remaining < 0 || f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < nextAt || (t == nextAt && id < nextID) {
			nextAt = t
			nextID = id
		}
	}
	if nextID == "" {
		return
	}
	id := nextID
	fs.nextEvent = fs.schedule(time.Duration(nextAt*float64(time.Second)), func() {
		fs.nextEvent = nil
		f := fs.flows[id]
		if f == nil {
			return
		}
		fs.settle()
		delete(fs.flows, id)
		if f.done != nil {
			f.done()
		}
		fs.rebalance()
	})
}

// assignRates runs progressive filling across all resources.
func (fs *FlowSim) assignRates() {
	type resState struct {
		residual float64
		flows    []*Flow
	}
	states := make(map[string]*resState, len(fs.resources))
	for id, r := range fs.resources {
		states[id] = &resState{residual: r.Capacity}
	}
	unfrozen := make([]*Flow, 0, len(fs.flows))
	ids := make([]string, 0, len(fs.flows))
	for id := range fs.flows {
		ids = append(ids, id)
	}
	sort.Strings(ids) // determinism
	for _, id := range ids {
		f := fs.flows[id]
		f.rate = 0
		unfrozen = append(unfrozen, f)
		for rid := range f.UnitsPerByte {
			states[rid].flows = append(states[rid].flows, f)
		}
	}
	frozen := make(map[*Flow]bool)
	for len(unfrozen) > 0 {
		// Max additional rate each unfrozen flow can take before some
		// constraint binds: its own demand, or a resource fills.
		delta := math.Inf(1)
		for _, f := range unfrozen {
			if d := f.Demand - f.rate; d < delta {
				delta = d
			}
		}
		for rid, st := range states {
			// Units consumed per unit rate increase across unfrozen flows.
			unitsPerRate := 0.0
			for _, f := range st.flows {
				if !frozen[f] {
					unitsPerRate += f.UnitsPerByte[rid]
				}
			}
			if unitsPerRate > 0 {
				if d := st.residual / unitsPerRate; d < delta {
					delta = d
				}
			}
		}
		if math.IsInf(delta, 1) || delta < 0 {
			break
		}
		// Apply the increment.
		for _, f := range unfrozen {
			f.rate += delta
			for rid, u := range f.UnitsPerByte {
				states[rid].residual -= delta * u
			}
		}
		// Freeze flows at demand or on a saturated resource.
		const eps = 1e-9
		saturated := make(map[string]bool)
		for rid, st := range states {
			if st.residual <= eps*fs.resources[rid].Capacity {
				saturated[rid] = true
			}
		}
		var still []*Flow
		for _, f := range unfrozen {
			stop := f.rate >= f.Demand-eps*f.Demand
			if !stop {
				for rid := range f.UnitsPerByte {
					if saturated[rid] {
						stop = true
						break
					}
				}
			}
			if stop {
				frozen[f] = true
			} else {
				still = append(still, f)
			}
		}
		if len(still) == len(unfrozen) {
			break // no progress; numerical guard
		}
		unfrozen = still
	}
}
