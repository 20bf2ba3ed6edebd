package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// samplePool recycles the per-(class, phase) latency sample slices. A large
// tenant population completes millions of requests per phase, and the
// append-grown backing arrays dominate the engine's allocations (flagged in
// ROADMAP item 2 as a blocker for 1M-tenant runs); they are dead the moment
// the report rows are built, so the engine returns them here and the next
// run — or the next seed of a sweep, on any worker — starts with grown
// capacity instead of re-paying the growth path. Pooling never changes
// results: slices are handed out empty and consumed fully before release.
var samplePool = sync.Pool{New: func() any { return new([]time.Duration) }}

// getSampleSlice returns an empty latency slice, reusing whatever capacity
// a previous run grew.
func getSampleSlice() []time.Duration {
	return (*samplePool.Get().(*[]time.Duration))[:0]
}

// putSampleSlice returns a slice's backing array to the pool. The caller
// must not touch s afterwards.
func putSampleSlice(s []time.Duration) {
	samplePool.Put(&s)
}

// Phase names, in timeline order. Warmup samples are reported but excluded
// from acceptance comparisons; quiescent is the baseline the storm phase is
// judged against.
const (
	PhaseWarmup    = "warmup"
	PhaseQuiescent = "quiescent"
	PhaseStorm     = "storm"
	PhaseDrain     = "drain"
)

// Phases lists the traffic phases in timeline order.
var Phases = []string{PhaseWarmup, PhaseQuiescent, PhaseStorm, PhaseDrain}

// Request outcomes. Latency samples cover ok and error (a request that
// burned its whole retry budget is tail latency, not a free pass); shed and
// throttled requests were refused before consuming disk time and are
// counted separately.
const (
	OutcomeOK        = "ok"
	OutcomeError     = "error"
	OutcomeShed      = "shed"
	OutcomeThrottled = "throttled"
)

// ClassSLO is one tenant class's outcome during one phase. Percentiles are
// exact (computed from the full sorted sample set, not histogram buckets)
// over completed requests — ok and error both count, at their full elapsed
// time from arrival to final outcome.
type ClassSLO struct {
	Class     string
	Phase     string
	Total     int
	OK        int
	Errors    int
	Shed      int
	Throttled int
	P50       time.Duration
	P99       time.Duration
	P999      time.Duration
	Max       time.Duration
}

// SLOReport is the per-tenant-class outcome of a traffic run, plus the
// power/protection summary. Its Text rendering is byte-stable for a given
// seed and option set, so goldens and same-seed comparisons can diff it.
type SLOReport struct {
	Seed      int64
	Protected bool
	Storm     bool
	Rows      []ClassSLO

	// ActiveDisksMax is the high-water mark of simultaneously spinning
	// (or spinning-up) disks — the power-budget outcome. TotalDisks is
	// the denominator.
	ActiveDisksMax int
	TotalDisks     int
	// SpinUps / SpinDowns count disk motor starts/stops after setup
	// (setup's archival spin-down is excluded).
	SpinUps   int
	SpinDowns int
	// BreakerOpens counts server-side per-disk breaker trips (protected
	// runs only).
	BreakerOpens uint64
}

// Row returns the row for (class, phase), or a zero row if absent.
func (r *SLOReport) Row(class, phase string) ClassSLO {
	for _, row := range r.Rows {
		if row.Class == class && row.Phase == phase {
			return row
		}
	}
	return ClassSLO{Class: class, Phase: phase}
}

// onOff renders a bool the way the report header reads.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// ms renders a duration as fixed-point milliseconds (stable width-friendly
// form; exact percentiles are still available on the struct).
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// Text renders the report as a fixed-width table. The output is
// byte-identical across same-seed runs and worker counts — goldens diff it.
func (r *SLOReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tenant SLO report: seed %d, storm %s, protection %s\n",
		r.Seed, onOff(r.Storm), onOff(r.Protected))
	fmt.Fprintf(&b, "  %-9s %-9s %7s %7s %6s %6s %6s %10s %10s %10s %10s\n",
		"class", "phase", "total", "ok", "err", "shed", "thr", "p50", "p99", "p999", "max")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %-9s %7d %7d %6d %6d %6d %10s %10s %10s %10s\n",
			row.Class, row.Phase, row.Total, row.OK, row.Errors, row.Shed, row.Throttled,
			ms(row.P50), ms(row.P99), ms(row.P999), ms(row.Max))
	}
	fmt.Fprintf(&b, "  power: active disks max %d of %d, spin-ups %d, spin-downs %d, breaker opens %d\n",
		r.ActiveDisksMax, r.TotalDisks, r.SpinUps, r.SpinDowns, r.BreakerOpens)
	return b.String()
}

// Quantile returns the exact q-per-mille quantile of samples (0 if empty):
// the element at floor index len*q/1000 of the sorted set. It is the one
// percentile rule of the SLO report and the chaos harness's probe p99.
// Samples must be sorted ascending.
func Quantile(sorted []time.Duration, perMille int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * perMille / 1000
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sloRow builds one report row from a phase's outcome counts and completed
// latency samples (sorted in place).
func sloRow(class, phase string, counts map[string]int, samples []time.Duration) ClassSLO {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	row := ClassSLO{
		Class:     class,
		Phase:     phase,
		OK:        counts[OutcomeOK],
		Errors:    counts[OutcomeError],
		Shed:      counts[OutcomeShed],
		Throttled: counts[OutcomeThrottled],
		P50:       Quantile(samples, 500),
		P99:       Quantile(samples, 990),
		P999:      Quantile(samples, 999),
		Max:       Quantile(samples, 1000),
	}
	row.Total = row.OK + row.Errors + row.Shed + row.Throttled
	return row
}
