// Package faults injects failures into a UStore simulation on the
// schedules the paper cites (§IV-E): hosts fail with an MTTF of about 3.4
// months (software and network issues dominate), disks with an MTTF of
// 10-50 years, and physical interconnect components at disk-like rates.
//
// The Injector draws exponential inter-failure times from the
// deterministic simulation RNG; EmpiricalModel (empirical.go) is the
// measured bathtub/batch/URE alternative. Scripted schedules and gray
// (fail-slow) faults are internal/chaos's job.
package faults

import (
	"math"
	"sync"
	"time"

	"ustore/internal/simtime"
)

// MTTF constants from the paper's citations (Ford et al. OSDI'10; Jiang et
// al. FAST'08).
const (
	// HostMTTF is ~3.4 months.
	HostMTTF = 3.4 * 30 * 24 * time.Hour
	// DiskMTTFLow and DiskMTTFHigh bound the 10-50 year disk MTTF range.
	DiskMTTFLow  = 10 * 365 * 24 * time.Hour
	DiskMTTFHigh = 50 * 365 * 24 * time.Hour
	// InterconnectMTTF: "physical interconnects have similar failure rate
	// as disks".
	InterconnectMTTF = DiskMTTFLow
)

// Kind classifies an injected fault.
type Kind int

// Fault kinds.
const (
	KindHostCrash Kind = iota
	KindHostRecover
	KindDiskFail
	KindHubFail
	// KindDiskReplace and KindHubReplace are operator field-replacements of
	// a failed unit, arriving one MTTR after the corresponding failure.
	KindDiskReplace
	KindHubReplace
)

// Event is one injected fault.
type Event struct {
	At     simtime.Time
	Kind   Kind
	Target string
}

// Actions connects the injector to the system under test.
type Actions struct {
	CrashHost   func(host string)
	RestoreHost func(host string)
	FailDisk    func(disk string)
	FailHub     func(hub string)
	// ReplaceDisk and ReplaceHub swap a failed unit for a working one
	// (fresh media for disks — data recovery is the upper layer's job).
	ReplaceDisk func(disk string)
	ReplaceHub  func(hub string)
}

// Injector drives MTTF-based failure injection.
type Injector struct {
	sched *simtime.Scheduler
	act   Actions

	// HostRepair is how long a crashed host stays down before restart
	// (operator reboot / auto-recovery). Default 10 minutes; zero restores
	// a crashed host at once.
	HostRepair time.Duration
	// HostMTTFOverride, when nonzero, replaces the paper's 3.4-month host
	// MTTF — accelerated-aging experiments compress a year of failures
	// into a simulable window.
	HostMTTFOverride time.Duration
	// DiskMTTR and HubMTTR are how long a failed disk/hub waits for an
	// operator field-replacement (Actions.ReplaceDisk/ReplaceHub), after
	// which its failure clock is re-armed. Zero leaves failed units dead
	// forever (the seed behaviour); multi-year runs want a realistic few
	// days so the cluster doesn't decay to empty.
	DiskMTTR time.Duration
	HubMTTR  time.Duration
	// DiskMTTFOverride and HubMTTFOverride, when nonzero, compress the
	// 10-50y disk and hub MTTFs for accelerated-aging runs.
	DiskMTTFOverride time.Duration
	HubMTTFOverride  time.Duration

	hosts []string
	disks []string
	hubs  []string

	// mu guards stopped, log and events so Stop may be called from a
	// goroutine other than the one driving the scheduler. Every injected
	// callback runs under mu and re-checks stopped first, so once Stop
	// returns no action fires and no log entry is appended.
	mu      sync.Mutex
	log     []Event // every injected event, in order
	stopped bool
	// events holds each component's one pending event (its next failure
	// or repair), hosts first, then disks, then hubs.
	events []*simtime.Event
}

// after schedules fn as component slot's pending event so Stop can cancel
// it. The caller must hold in.mu; fn runs with in.mu held and only if the
// injector has not been stopped.
func (in *Injector) after(slot int, d time.Duration, fn func()) {
	in.events[slot] = in.sched.After(d, func() {
		in.mu.Lock()
		defer in.mu.Unlock()
		if in.stopped {
			return
		}
		fn()
	})
}

// NewInjector creates an injector over the given component populations.
func NewInjector(sched *simtime.Scheduler, act Actions, hosts, disks, hubs []string) *Injector {
	return &Injector{
		sched:      sched,
		act:        act,
		HostRepair: 10 * time.Minute,
		hosts:      append([]string(nil), hosts...),
		disks:      append([]string(nil), disks...),
		hubs:       append([]string(nil), hubs...),
	}
}

// Stop halts future injection and cancels every outstanding scheduled
// event, so nothing fires actions or appends to the log after Stop
// returns. Safe to call from any goroutine, including while the scheduler
// is being driven elsewhere: a callback already executing holds in.mu, so
// Stop blocks until it finishes, and callbacks that have not yet acquired
// the lock observe stopped and return without acting.
func (in *Injector) Stop() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stopped = true
	for _, ev := range in.events {
		if ev != nil {
			ev.Cancel()
		}
	}
	in.events = nil
}

// exp draws an exponential variate with the given mean from the scheduler's
// deterministic RNG.
func (in *Injector) exp(mean time.Duration) time.Duration {
	u := in.sched.Rand().Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return time.Duration(-math.Log(u) * float64(mean))
}

// Start arms the per-component failure clocks. Each host gets an
// exponential crash clock (MTTF/#nothing — per host MTTF directly); each
// disk and hub a failure clock with a mean drawn from the disk MTTF range.
func (in *Injector) Start() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.events = make([]*simtime.Event, len(in.hosts)+len(in.disks)+len(in.hubs))
	slot := 0
	hostMTTF := HostMTTF
	if in.HostMTTFOverride > 0 {
		hostMTTF = in.HostMTTFOverride
	}
	for _, h := range in.hosts {
		in.arm(slot, h, hostMTTF, max(in.HostRepair, 0), KindHostCrash, KindHostRecover, in.act.CrashHost, in.act.RestoreHost)
		slot++
	}
	diskRepair, hubRepair := repairOrNever(in.DiskMTTR), repairOrNever(in.HubMTTR)
	for _, d := range in.disks {
		mean := in.DiskMTTFOverride
		if mean <= 0 {
			mean = DiskMTTFLow + time.Duration(in.sched.Rand().Float64()*float64(DiskMTTFHigh-DiskMTTFLow))
		}
		in.arm(slot, d, mean, diskRepair, KindDiskFail, KindDiskReplace, in.act.FailDisk, in.act.ReplaceDisk)
		slot++
	}
	hubMTTF := InterconnectMTTF
	if in.HubMTTFOverride > 0 {
		hubMTTF = in.HubMTTFOverride
	}
	for _, hub := range in.hubs {
		in.arm(slot, hub, hubMTTF, hubRepair, KindHubFail, KindHubReplace, in.act.FailHub, in.act.ReplaceHub)
		slot++
	}
}

// repairOrNever maps a disk or hub MTTR to arm's repair: zero or less
// means no operator replaces the unit.
func repairOrNever(mttr time.Duration) time.Duration {
	if mttr <= 0 {
		return -1
	}
	return mttr
}

// arm starts the failure clock of target, component slot: after an
// exponential wait with mean mttf the target fails, and repair later it is
// restored and the clock re-armed. A negative repair leaves the target dead
// (no operator on schedule). Either action may be nil.
func (in *Injector) arm(slot int, target string, mttf, repair time.Duration, failKind, restoreKind Kind, fail, restore func(string)) {
	in.after(slot, in.exp(mttf), func() {
		in.log = append(in.log, Event{At: in.sched.Now(), Kind: failKind, Target: target})
		if fail != nil {
			fail(target)
		}
		if repair < 0 {
			return
		}
		in.after(slot, repair, func() {
			in.log = append(in.log, Event{At: in.sched.Now(), Kind: restoreKind, Target: target})
			if restore != nil {
				restore(target)
			}
			in.arm(slot, target, mttf, repair, failKind, restoreKind, fail, restore)
		})
	})
}
