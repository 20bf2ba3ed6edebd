// Package chaos is UStore's deterministic chaos-testing harness. It composes
// randomized fault schedules — host crashes, disk and hub failures with
// operator replacement, network partitions, message loss and duplication,
// and silent media corruption — against a full simulated cluster while a
// replicated workload keeps writing, and continuously checks the system's
// durability and liveness invariants:
//
//   - no acknowledged write is ever lost or silently corrupted;
//   - clients re-converge (remount) after host failover;
//   - exactly one active master exists once the quorum is quiet;
//   - allocation records never double-assign disk extents;
//   - (gray runs) the allocator never places new space on a quarantined
//     disk, and hedged probe reads always return the acknowledged bytes.
//
// Gray (fail-slow) faults — disk degradation, USB link flaps and
// downgrades, host brownouts — are opt-in via Options.GrayFaults, with the
// detect-quarantine-hedge mitigation stack toggled independently by
// Options.Mitigation so mitigated and unmitigated runs of the same seed can
// be compared head to head.
//
// The replicated workload has one shape — workloadPairs pairs of
// blocksPerSpace blocks, written every writeEvery, audited every
// auditEvery, scrubbed every scrubEvery — so Options carries only what
// runs vary.
//
// Every run is seeded and replayable: the same Options produce a
// byte-identical event log. MinimizeParallel re-runs a violating schedule's
// prefixes to find the shortest one that still violates.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ustore/internal/faults"
	"ustore/internal/obs"
)

// FaultKind classifies one scheduled fault event.
type FaultKind int

// Fault kinds. Window-opening kinds pair with the closing kind right after
// them; FaultCorrupt and FaultLinkFlap are point events with no closing pair.
// What a kind is called and does is declared once, by its row of the
// families table.
const (
	FaultHostCrash FaultKind = iota
	FaultHostRestore
	FaultDiskFail
	FaultDiskReplace
	FaultHubFail
	FaultHubReplace
	FaultLinkCut
	FaultLinkHeal
	FaultLinkLoss
	FaultLinkLossEnd
	FaultLinkDup
	FaultLinkDupEnd
	FaultIsolate
	FaultRejoin
	FaultCorrupt
	// Gray (fail-slow) faults: the component keeps answering, just badly.
	FaultDiskDegrade
	FaultDiskRecover
	FaultLinkFlap
	FaultLinkDowngrade
	FaultLinkRestore
	FaultBrownout
	FaultBrownoutEnd
)

// String names the kind as the families table declares it.
func (k FaultKind) String() string {
	i, opens := familyOf(k)
	if i < 0 {
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
	if opens {
		return families[i].openName
	}
	return families[i].closeName
}

// Fault is one entry of a chaos schedule. At is relative to the start of the
// fault phase (after boot and the initial write pass).
type Fault struct {
	At   time.Duration
	Kind FaultKind
	// A is the primary target: a host, disk, hub, or machine name. Gray
	// disk faults (degrade/downgrade and their closers) with A == ""
	// resolve the target at apply time to the disk holding workload replica
	// Copy — letting hand-written test schedules target "the disk under
	// copy N" without knowing the seed's placement.
	A string
	// B is the second machine of a link fault.
	B string
	// Rate is the loss/duplication probability of a link fault window, or
	// the severity in (0,1] of a gray fault (degrade/downgrade/brownout).
	Rate float64
	// Copy and Block select the workload replica and block a FaultCorrupt
	// event damages (replicas are indexed in allocation order). For
	// FaultLinkFlap, Copy is the retry-storm count instead.
	Copy  int
	Block int
}

// String renders the fault for the event log: kind, target in the family's
// shape, and — on a window opener — the family's rate label.
func (f Fault) String() string {
	i, opens := familyOf(f.Kind)
	if i < 0 {
		return fmt.Sprintf("%s %s", f.Kind, f.A)
	}
	fam := &families[i]
	s := f.Kind.String() + " " + f.target(fam.target)
	if opens && fam.rate != "" {
		s += fmt.Sprintf(" %s%.2f", fam.rate, f.Rate)
	}
	return s
}

// target renders the fault's target in the given shape.
func (f Fault) target(shape targetShape) string {
	switch shape {
	case targetPair:
		return f.A + "<->" + f.B
	case targetGrayDisk:
		if f.A == "" {
			return fmt.Sprintf("disk(copy%d)", f.Copy)
		}
	case targetBlock:
		return fmt.Sprintf("copy%d/block%d", f.Copy, f.Block)
	case targetStorms:
		return fmt.Sprintf("%s storms=%d", f.A, f.Copy)
	}
	return f.A
}

// Options parameterizes a chaos run. The zero value is not useful; start
// from DefaultOptions.
type Options struct {
	// Seed drives both the cluster simulation and the schedule generator.
	Seed int64
	// Duration is the fault phase's simulated length.
	Duration time.Duration

	// Fault family switches.
	HostCrashes bool
	DiskFaults  bool
	HubFaults   bool
	NetFaults   bool
	Corruptions bool
	// GrayFaults enables fail-slow injection: disk degradation windows
	// (inflated service time, capped bandwidth, intermittent EIO), USB link
	// flap storms and USB3->USB2 downgrades, and host brownouts. Off by
	// default: gray runs additionally start a hedged-read prober workload,
	// so existing seeds stay byte-identical unless opted in.
	GrayFaults bool
	// Mitigation turns on the detect-quarantine-hedge stack against gray
	// faults: master-side disk health scoring and quarantine, harness-side
	// proactive migration off quarantined disks, and client-side adaptive
	// timeouts + hedged reads + circuit breakers on the prober workload.
	// With GrayFaults on and Mitigation off, the run measures the
	// unmitigated cost of gray failures under the same seed.
	Mitigation bool

	// Tenants switches the run to traffic mode: instead of a fault
	// schedule, the multi-tenant open-loop traffic engine
	// (internal/workload) drives the cluster and the report carries
	// per-class SLOs (Report.SLO). Storm adds the restore-storm waves;
	// Protect arms the admission/throttle/autoscale protection stack.
	// Fault-family switches are ignored in traffic mode.
	Tenants bool
	Storm   bool
	Protect bool

	// DisableChecksums turns off the per-block CRC export wrapper, so
	// injected media corruption reaches clients silently. Used to prove the
	// invariant checker detects real corruption.
	DisableChecksums bool

	// Recorder, when non-nil, collects metrics and trace events from the
	// run: the cluster's own instrumentation plus the harness's fault
	// injections, fault windows, and invariant-audit timings. Use a fresh
	// Recorder per run (it scopes the per-run metric state).
	Recorder *obs.Recorder `json:"-"`

	// Empirical, when non-nil, swaps the schedule's uniform disk-failure
	// windows for draws from the empirical failure model (bathtub AFR with
	// infant mortality and wear-out, correlated vintage-batch failures) and
	// arms every disk's uncorrectable-read-error rate from the model's
	// UREBits. AgeYears, which must then be positive, maps the run's
	// Duration onto that many years of media aging (accelerated aging: a
	// 2-simulated-day run sweeps a 5-year bathtub). The empirical draws use
	// their own rand stream, so every other fault family keeps its per-seed
	// schedule and a constant-vs-empirical pair of runs differs only in disk
	// events. Nil (the default) leaves the seed byte-identical.
	Empirical *faults.EmpiricalModel
	AgeYears  float64
}

// DefaultOptions returns an all-faults configuration for the given seed and
// duration.
func DefaultOptions(seed int64, duration time.Duration) Options {
	return Options{
		Seed:        seed,
		Duration:    duration,
		HostCrashes: true,
		DiskFaults:  true,
		HubFaults:   true,
		NetFaults:   true,
		Corruptions: true,
	}
}

// The replicated workload every faults-mode run drives: workloadPairs
// spaces of 2 copies each, blocksPerSpace checksum blocks long, one block
// rewritten every writeEvery, read back in full every auditEvery, and every
// endpoint scrubbed every scrubEvery.
const (
	workloadPairs  = 4
	blocksPerSpace = 8
	writeEvery     = 30 * time.Minute
	auditEvery     = 12 * time.Hour
	scrubEvery     = time.Hour
)

// genSchedule builds the fault schedule for a run, deterministically from
// opts.Seed. Window faults (crash/fail/cut/loss/dup/isolate) are generated
// per target with non-overlapping windows so every opening event has exactly
// one matching closing event; prefixes cut by the minimizer may leave
// windows open — the harness's drain phase heals them.
func genSchedule(o Options, hosts, disks, hubs, machines []string) []Fault {
	rng := rand.New(rand.NewSource(o.Seed))
	var out []Fault
	d := o.Duration

	// windows lays n non-overlapping [start,end) windows on [0,d).
	windows := func(n int, minW, maxW time.Duration) [][2]time.Duration {
		starts := make([]time.Duration, n)
		for i := range starts {
			starts[i] = time.Duration(rng.Int63n(int64(d)))
		}
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		var ws [][2]time.Duration
		prevEnd := time.Duration(0)
		for _, s := range starts {
			if s < prevEnd+10*time.Minute {
				s = prevEnd + 10*time.Minute
			}
			if s >= d {
				break
			}
			w := minW + time.Duration(rng.Int63n(int64(maxW-minW)+1))
			e := s + w
			if e > d {
				e = d
			}
			ws = append(ws, [2]time.Duration{s, e})
			prevEnd = e
		}
		return ws
	}
	// count turns a mean spacing into a per-target window count, guaranteeing
	// at least min across short runs.
	count := func(spacing time.Duration, min int) int {
		n := int(d / spacing)
		if n < min {
			n = min
		}
		return n
	}

	if o.HostCrashes {
		for _, h := range hosts {
			for _, w := range windows(count(30*24*time.Hour, 1), 30*time.Minute, 4*time.Hour) {
				out = append(out,
					Fault{At: w[0], Kind: FaultHostCrash, A: h},
					Fault{At: w[1], Kind: FaultHostRestore, A: h})
			}
		}
	}
	if o.DiskFaults {
		// The constant-model windows are always drawn — even when the
		// empirical model replaces them below — so the shared rng stream
		// stays aligned and every other family's schedule is byte-identical
		// between a constant and an empirical run of the same seed.
		diskStart := len(out)
		for i, disk := range disks {
			n := count(120*24*time.Hour, 0)
			if i == 0 && n == 0 {
				n = 1 // short runs still fail at least one disk
			}
			if n == 0 {
				continue
			}
			for _, w := range windows(n, 2*time.Hour, 8*time.Hour) {
				out = append(out,
					Fault{At: w[0], Kind: FaultDiskFail, A: disk},
					Fault{At: w[1], Kind: FaultDiskReplace, A: disk})
			}
		}
		if o.Empirical != nil {
			out = append(out[:diskStart], empiricalDiskSchedule(o, disks)...)
		}
	}
	if o.HubFaults {
		for i, hub := range hubs {
			n := count(200*24*time.Hour, 0)
			if i == 0 && n == 0 {
				n = 1
			}
			if n == 0 {
				continue
			}
			for _, w := range windows(n, 2*time.Hour, 6*time.Hour) {
				out = append(out,
					Fault{At: w[0], Kind: FaultHubFail, A: hub},
					Fault{At: w[1], Kind: FaultHubReplace, A: hub})
			}
		}
	}
	if o.NetFaults {
		// Random machine-pair windows: cuts, loss, duplication. Per-pair
		// bookkeeping keeps windows of the same kind from overlapping.
		pick := func() (string, string) {
			i := rng.Intn(len(machines))
			j := rng.Intn(len(machines) - 1)
			if j >= i {
				j++
			}
			a, b := machines[i], machines[j]
			if a > b {
				a, b = b, a
			}
			return a, b
		}
		type pairKey struct{ a, b string }
		place := func(n int, minW, maxW time.Duration, open, close FaultKind, rated bool) {
			lastEnd := make(map[pairKey]time.Duration)
			for i := 0; i < n; i++ {
				a, b := pick()
				k := pairKey{a, b}
				s := time.Duration(rng.Int63n(int64(d)))
				if s < lastEnd[k]+10*time.Minute {
					s = lastEnd[k] + 10*time.Minute
				}
				w := minW + time.Duration(rng.Int63n(int64(maxW-minW)+1))
				rate := 0.05 + 0.35*rng.Float64()
				if s >= d {
					continue
				}
				e := s + w
				if e > d {
					e = d
				}
				lastEnd[k] = e
				fo := Fault{At: s, Kind: open, A: a, B: b}
				if rated {
					fo.Rate = rate
				}
				out = append(out, fo, Fault{At: e, Kind: close, A: a, B: b})
			}
		}
		place(count(8*24*time.Hour, 2), 10*time.Minute, 90*time.Minute, FaultLinkCut, FaultLinkHeal, false)
		place(count(10*24*time.Hour, 2), 30*time.Minute, 3*time.Hour, FaultLinkLoss, FaultLinkLossEnd, true)
		place(count(15*24*time.Hour, 1), 30*time.Minute, 3*time.Hour, FaultLinkDup, FaultLinkDupEnd, true)
		// Master-machine isolation windows (full partition of one replica).
		for _, m := range machines {
			if !strings.HasPrefix(m, "mach-") {
				continue
			}
			for _, w := range windows(count(40*24*time.Hour, 1), 30*time.Minute, 2*time.Hour) {
				out = append(out,
					Fault{At: w[0], Kind: FaultIsolate, A: m},
					Fault{At: w[1], Kind: FaultRejoin, A: m})
			}
		}
	}
	if o.Corruptions {
		n := count(8*24*time.Hour, 2)
		for i := 0; i < n; i++ {
			out = append(out, Fault{
				At:    time.Duration(rng.Int63n(int64(d))),
				Kind:  FaultCorrupt,
				Copy:  rng.Intn(2 * workloadPairs),
				Block: rng.Intn(blocksPerSpace),
			})
		}
	}
	if o.GrayFaults {
		// Fail-slow disk windows: the disk keeps serving, just badly.
		for i, disk := range disks {
			n := count(90*24*time.Hour, 0)
			if i == 0 && n == 0 {
				n = 1 // short runs still gray at least one disk
			}
			if n == 0 {
				continue
			}
			for _, w := range windows(n, time.Hour, 12*time.Hour) {
				out = append(out,
					Fault{At: w[0], Kind: FaultDiskDegrade, A: disk, Rate: 0.3 + 0.6*rng.Float64()},
					Fault{At: w[1], Kind: FaultDiskRecover, A: disk})
			}
		}
		// USB link flap storms: point events, the device re-enumerates.
		for i, n := 0, count(20*24*time.Hour, 1); i < n; i++ {
			out = append(out, Fault{
				At:   time.Duration(rng.Int63n(int64(d))),
				Kind: FaultLinkFlap,
				A:    disks[rng.Intn(len(disks))],
				Copy: 1 + rng.Intn(3),
			})
		}
		// USB3 -> USB2 downgrade windows: the link renegotiates slow.
		for i, disk := range disks {
			n := count(150*24*time.Hour, 0)
			if i == 1 && n == 0 {
				n = 1
			}
			if n == 0 {
				continue
			}
			for _, w := range windows(n, 2*time.Hour, 8*time.Hour) {
				out = append(out,
					Fault{At: w[0], Kind: FaultLinkDowngrade, A: disk, Rate: 0.2 + 0.6*rng.Float64()},
					Fault{At: w[1], Kind: FaultLinkRestore, A: disk})
			}
		}
		// Host brownout windows: RPC service-time inflation on one host.
		for i, host := range hosts {
			n := count(120*24*time.Hour, 0)
			if i == 0 && n == 0 {
				n = 1
			}
			if n == 0 {
				continue
			}
			for _, w := range windows(n, 30*time.Minute, 4*time.Hour) {
				out = append(out,
					Fault{At: w[0], Kind: FaultBrownout, A: host, Rate: 0.2 + 0.5*rng.Float64()},
					Fault{At: w[1], Kind: FaultBrownoutEnd, A: host})
			}
		}
	}

	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
