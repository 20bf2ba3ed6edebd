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
	"fmt"
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

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindHostCrash:
		return "host-crash"
	case KindHostRecover:
		return "host-recover"
	case KindDiskFail:
		return "disk-fail"
	case KindHubFail:
		return "hub-fail"
	case KindDiskReplace:
		return "disk-replace"
	case KindHubReplace:
		return "hub-replace"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

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
	// (operator reboot / auto-recovery). Default 10 minutes.
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
	log     []Event
	stopped bool
	events  []*simtime.Event
}

// after schedules fn and records the event so Stop can cancel it. The
// caller must hold in.mu; fn runs with in.mu held and only if the
// injector has not been stopped.
func (in *Injector) after(d time.Duration, fn func()) {
	ev := in.sched.After(d, func() {
		in.mu.Lock()
		defer in.mu.Unlock()
		if in.stopped {
			return
		}
		fn()
	})
	in.events = append(in.events, ev)
	// Compact occasionally so multi-year runs don't accumulate a reference
	// to every fired event.
	if len(in.events) >= 64 {
		live := in.events[:0]
		for _, e := range in.events {
			if !e.Done() {
				live = append(live, e)
			}
		}
		in.events = live
	}
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

// Log returns the injected events so far.
func (in *Injector) Log() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.log...)
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
		ev.Cancel()
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
	for _, h := range in.hosts {
		in.armHost(h)
	}
	for _, d := range in.disks {
		mean := in.DiskMTTFOverride
		if mean <= 0 {
			mean = DiskMTTFLow + time.Duration(in.sched.Rand().Float64()*float64(DiskMTTFHigh-DiskMTTFLow))
		}
		in.armDisk(d, mean)
	}
	for _, hub := range in.hubs {
		in.armHub(hub)
	}
}

func (in *Injector) armHost(h string) {
	mttf := HostMTTF
	if in.HostMTTFOverride > 0 {
		mttf = in.HostMTTFOverride
	}
	in.after(in.exp(mttf), func() {
		in.log = append(in.log, Event{At: in.sched.Now(), Kind: KindHostCrash, Target: h})
		if in.act.CrashHost != nil {
			in.act.CrashHost(h)
		}
		in.after(in.HostRepair, func() {
			in.log = append(in.log, Event{At: in.sched.Now(), Kind: KindHostRecover, Target: h})
			if in.act.RestoreHost != nil {
				in.act.RestoreHost(h)
			}
			in.armHost(h)
		})
	})
}

func (in *Injector) armDisk(d string, mean time.Duration) {
	in.after(in.exp(mean), func() {
		in.log = append(in.log, Event{At: in.sched.Now(), Kind: KindDiskFail, Target: d})
		if in.act.FailDisk != nil {
			in.act.FailDisk(d)
		}
		if in.DiskMTTR <= 0 {
			// No operator on schedule: the unit stays dead (the seed
			// behaviour, fine for short windows).
			return
		}
		in.after(in.DiskMTTR, func() {
			in.log = append(in.log, Event{At: in.sched.Now(), Kind: KindDiskReplace, Target: d})
			if in.act.ReplaceDisk != nil {
				in.act.ReplaceDisk(d)
			}
			in.armDisk(d, mean)
		})
	})
}

func (in *Injector) armHub(h string) {
	mttf := InterconnectMTTF
	if in.HubMTTFOverride > 0 {
		mttf = in.HubMTTFOverride
	}
	in.after(in.exp(mttf), func() {
		in.log = append(in.log, Event{At: in.sched.Now(), Kind: KindHubFail, Target: h})
		if in.act.FailHub != nil {
			in.act.FailHub(h)
		}
		if in.HubMTTR <= 0 {
			return
		}
		in.after(in.HubMTTR, func() {
			in.log = append(in.log, Event{At: in.sched.Now(), Kind: KindHubReplace, Target: h})
			if in.act.ReplaceHub != nil {
				in.act.ReplaceHub(h)
			}
			in.armHub(h)
		})
	})
}
