package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"ustore/internal/core"
	"ustore/internal/disk"
	"ustore/internal/obs"
	"ustore/internal/policy"
	"ustore/internal/simtime"
)

// Multi-tenant open-loop traffic engine. Where the Iometer workloads above
// drive disks closed-loop at fixed queue depth, this engine models the
// *demand side* of a cold-storage deployment: a population of tenants in
// priority classes (premium restores, standard access, archival-ingest
// campaigns, batch recalls) whose requests arrive open-loop — Poisson
// interarrivals that do not slow down when the system does, which is
// exactly what makes overload dangerous. Tenant activity is Zipf-skewed,
// the aggregate rate breathes diurnally, and a restore-storm scenario
// mass-recalls volumes that were spun down after archival.
//
// Everything is driven by the simtime scheduler from rng streams derived
// from TrafficOptions.Seed, so a given option set is byte-identical across
// runs and across parallel sweep workers. The engine pairs with the
// protection stack (core.Protector + master-side throttling): the same
// seed run with Protect on and off is the head-to-head experiment.

// ClassSpec describes one tenant class (an admission-priority tier).
type ClassSpec struct {
	Name string
	// Priority orders admission (lower is served first). Keep priorities
	// unique across classes.
	Priority int
	// Tenants is the class population; per-request tenant identity is
	// Zipf-skewed over it with exponent ZipfS.
	Tenants int
	ZipfS   float64
	// Rate is the class's mean steady arrival rate in requests/sec
	// (0 = no steady traffic; the class only sees campaign/storm load).
	Rate float64
	// IOSize is the bytes moved per request (reads for every class except
	// ingest, which writes).
	IOSize int
	// Budget bounds one request's total retry time: a request that cannot
	// complete inside it fails at full elapsed time (latency-to-outcome).
	Budget time.Duration
	// QueueLimit / MaxWait parameterize the class's admission queue in
	// protected runs.
	QueueLimit int
	MaxWait    time.Duration
}

// TrafficOptions parameterizes a traffic run. Start from
// DefaultTrafficOptions — goldens, CI smoke, and the acceptance tests all
// share it.
type TrafficOptions struct {
	Seed    int64
	Classes []ClassSpec

	// Placement: every disk gets VolumesPerDisk volumes of VolumeSize
	// bytes; the last ColdDisks disks (sorted by name) are archival — spun
	// down after setup, recalled only by the storm. Gateways is how many
	// frontend clients carry tenant traffic (tenants hash onto them).
	VolumeSize     int64
	VolumesPerDisk int
	ColdDisks      int
	Gateways       int

	// Phase timeline (all phases run back to back).
	Warmup    time.Duration
	Quiescent time.Duration
	Storm     time.Duration
	Drain     time.Duration

	// Diurnal modulation: the steady arrival rate breathes as
	// Rate * (1 + Amp*sin(2*pi*t/Period)), thinned from the peak rate so
	// the rng draw sequence stays one-per-arrival.
	DiurnalAmp    float64
	DiurnalPeriod time.Duration

	// Restore storm: during the storm phase, every WaveEvery a wave of
	// WaveSize batch-class requests arrives over ~WaveSpread.
	// WaveWarmFraction of them re-read warm volumes (the restore
	// pipeline's catalog traffic — what actually tramples premium);
	// the rest mass-recall archived volumes on spun-down disks.
	StormEnabled     bool
	WaveEvery        time.Duration
	WaveSize         int
	WaveSpread       time.Duration
	WaveWarmFraction float64

	// Archival-ingest campaigns: windows of IngestLen starting at
	// IngestStart and repeating every IngestEvery, during which the ingest
	// class allocates fresh archival volumes and writes IngestSize bytes
	// into each, at IngestRate ops/sec.
	IngestStart time.Duration
	IngestEvery time.Duration
	IngestLen   time.Duration
	IngestRate  float64
	IngestSize  int

	// Protect arms the overload-protection stack; the knobs below feed
	// core.ProtectionConfig (see ProtectionConfig()).
	Protect       bool
	SlotsPerDisk  int
	TenantRate    float64
	TenantBurst   float64
	MasterRate    float64
	MasterBurst   float64
	MinSpinning   int
	MaxSpinning   int
	MaxSpinningUp int
	IdleAfter     time.Duration
}

// Canonical class names used by DefaultTrafficOptions and the storm/ingest
// machinery.
const (
	ClassPremium  = "premium"
	ClassStandard = "standard"
	ClassIngest   = "ingest"
	ClassBatch    = "batch"
)

// DefaultTrafficOptions is the shared traffic configuration: a 3-host
// 6-disk unit, four tenant classes, a ~24-minute timeline. The protection
// knobs cap the active-disk count at 5 of 6 (the power budget), serialize
// one IO per disk so backlog stays in the admission queues, and clip
// tenants at 3 req/s.
func DefaultTrafficOptions(seed int64) TrafficOptions {
	return TrafficOptions{
		Seed: seed,
		Classes: []ClassSpec{
			{Name: ClassPremium, Priority: 0, Tenants: 12, ZipfS: 1.2, Rate: 4.0,
				IOSize: 256 << 10, Budget: 4 * time.Second, QueueLimit: 64, MaxWait: 2 * time.Second},
			{Name: ClassStandard, Priority: 1, Tenants: 16, ZipfS: 1.2, Rate: 1.5,
				IOSize: 1 << 20, Budget: 10 * time.Second, QueueLimit: 96, MaxWait: 10 * time.Second},
			{Name: ClassIngest, Priority: 2, Tenants: 6, ZipfS: 1.1, Rate: 0,
				IOSize: 128 << 10, Budget: 15 * time.Second, QueueLimit: 64, MaxWait: 15 * time.Second},
			{Name: ClassBatch, Priority: 3, Tenants: 10, ZipfS: 1.1, Rate: 0.3,
				IOSize: 4 << 20, Budget: 25 * time.Second, QueueLimit: 256, MaxWait: 20 * time.Second},
		},
		VolumeSize:     8 << 20,
		VolumesPerDisk: 2,
		ColdDisks:      2,
		Gateways:       4,

		Warmup:    4 * time.Minute,
		Quiescent: 10 * time.Minute,
		Storm:     6 * time.Minute,
		Drain:     4 * time.Minute,

		DiurnalAmp:    0.25,
		DiurnalPeriod: 10 * time.Minute,

		WaveEvery:        60 * time.Second,
		WaveSize:         800,
		WaveSpread:       2 * time.Second,
		WaveWarmFraction: 0.6,

		IngestStart: 2 * time.Minute,
		IngestEvery: 8 * time.Minute,
		IngestLen:   time.Minute,
		IngestRate:  1.0,
		IngestSize:  128 << 10,

		SlotsPerDisk:  1,
		TenantRate:    3,
		TenantBurst:   12,
		MasterRate:    5,
		MasterBurst:   10,
		MinSpinning:   4,
		MaxSpinning:   5,
		MaxSpinningUp: 1,
		IdleAfter:     30 * time.Second,
	}
}

// ProtectionConfig translates the options into the core protection stack's
// configuration (admission classes mirror the traffic classes).
func (o TrafficOptions) ProtectionConfig() *core.ProtectionConfig {
	pc := &core.ProtectionConfig{
		SlotsPerDisk: o.SlotsPerDisk,
		TenantRate:   o.TenantRate,
		TenantBurst:  o.TenantBurst,
		MasterRate:   o.MasterRate,
		MasterBurst:  o.MasterBurst,
		Scale: policy.AutoScalerConfig{
			MinSpinning:   o.MinSpinning,
			MaxSpinning:   o.MaxSpinning,
			MaxSpinningUp: o.MaxSpinningUp,
			IdleAfter:     o.IdleAfter,
		},
		BreakerDisks: true,
	}
	for _, cs := range o.Classes {
		pc.Classes = append(pc.Classes, policy.ClassConfig{
			Name:       cs.Name,
			Priority:   cs.Priority,
			QueueLimit: cs.QueueLimit,
			MaxWait:    cs.MaxWait,
		})
	}
	return pc
}

// total is the full phase timeline length.
func (o TrafficOptions) total() time.Duration {
	return o.Warmup + o.Quiescent + o.Storm + o.Drain
}

// trafficVolume is one placed volume.
type trafficVolume struct {
	space  core.SpaceID
	diskID string
	size   int64
}

// classState is one class's runtime: its rng stream, tenant CDF, and
// per-phase outcome accounting.
type classState struct {
	spec    ClassSpec
	index   int
	rng     *rand.Rand
	cdf     []float64
	counts  map[string]map[string]int  // phase -> outcome -> n
	samples map[string][]time.Duration // phase -> completed latencies
	cOut    map[string]*obs.Counter    // outcome -> counter
	hist    map[string]*obs.Histogram  // phase -> latency histogram
}

// TrafficEngine drives one traffic run against a booted cluster. Create
// with NewTrafficEngine, then Setup, then Run. All callbacks execute on the
// cluster's scheduler goroutine.
type TrafficEngine struct {
	c     *core.Cluster
	o     TrafficOptions
	sched *simtime.Scheduler
	rec   *obs.Recorder
	logf  func(format string, a ...any)

	prot    *core.Protector
	classes []*classState
	byName  map[string]*classState

	diskIDs   []string
	warm      []*trafficVolume
	archived  []*trafficVolume
	coldDisks []string
	gws       []*core.ClientLib
	ingestCl  *core.ClientLib
	ingestBuf []byte

	start    simtime.Time
	stopped  bool
	inflight int

	stormRng *rand.Rand

	activeMax int
	spinUps   int
	spinDowns int
	observing bool // state-change observers armed (post-setup)

	sampler *simtime.Ticker
}

var errTrafficPending = errors.New("workload: pending")

// NewTrafficEngine builds the engine over a booted cluster. logf receives
// the engine's event-log lines (nil discards them).
func NewTrafficEngine(c *core.Cluster, o TrafficOptions, logf func(string, ...any)) *TrafficEngine {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	e := &TrafficEngine{
		c:        c,
		o:        o,
		sched:    c.Sched,
		rec:      c.Cfg.Recorder,
		logf:     logf,
		byName:   make(map[string]*classState),
		stormRng: rand.New(rand.NewSource(o.Seed ^ 0x517cc1b727220a95)),
	}
	for i, spec := range o.Classes {
		cs := &classState{
			spec:    spec,
			index:   i,
			rng:     rand.New(rand.NewSource(o.Seed*1000003 + int64(i))),
			cdf:     zipfCDF(spec.Tenants, spec.ZipfS),
			counts:  make(map[string]map[string]int),
			samples: make(map[string][]time.Duration),
			cOut:    make(map[string]*obs.Counter),
			hist:    make(map[string]*obs.Histogram),
		}
		for _, ph := range Phases {
			cs.counts[ph] = make(map[string]int)
			cs.samples[ph] = getSampleSlice()
			cs.hist[ph] = e.rec.Histogram("workload", "request_seconds",
				obs.L("class", spec.Name), obs.L("phase", ph))
		}
		for _, out := range []string{OutcomeOK, OutcomeError, OutcomeShed, OutcomeThrottled} {
			cs.cOut[out] = e.rec.Counter("workload", "requests_total",
				obs.L("class", spec.Name), obs.L("outcome", out))
		}
		e.classes = append(e.classes, cs)
		e.byName[spec.Name] = cs
	}
	for id := range c.Disks {
		e.diskIDs = append(e.diskIDs, id)
	}
	sort.Strings(e.diskIDs)
	return e
}

// zipfCDF builds the cumulative tenant-pick distribution with weights
// 1/rank^s.
func zipfCDF(n int, s float64) []float64 {
	if n < 1 {
		n = 1
	}
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	cdf := make([]float64, n)
	acc := 0.0
	for i := range w {
		acc += w[i] / sum
		cdf[i] = acc
	}
	cdf[n-1] = 1
	return cdf
}

// pickTenant draws a Zipf-skewed tenant from the class population.
func (cs *classState) pickTenant() (string, int) {
	u := cs.rng.Float64()
	i := sort.SearchFloat64s(cs.cdf, u)
	if i >= len(cs.cdf) {
		i = len(cs.cdf) - 1
	}
	return fmt.Sprintf("%s-t%02d", cs.spec.Name, i), i
}

// expGap draws one exponential interarrival gap for the given rate.
func expGap(rng *rand.Rand, perSec float64) time.Duration {
	u := rng.Float64()
	return time.Duration(-math.Log(1-u) / perSec * float64(time.Second))
}

// settleUntil advances the simulation until cond holds or budget elapses.
func (e *TrafficEngine) settleUntil(cond func() bool, budget time.Duration) bool {
	deadline := e.sched.Now() + budget
	for e.sched.Now() < deadline {
		if cond() {
			return true
		}
		e.c.Settle(5 * time.Second)
	}
	return cond()
}

// Setup places the volume population and establishes the warm/cold split:
// one allocator service per disk claims its disk (the master's same-service
// affinity keeps the pair together), gateways mount everything, and the
// archival disks are spun down. Runs before the protector exists, so setup
// traffic is never shed.
func (e *TrafficEngine) Setup() error {
	o := e.o
	nDisks := len(e.diskIDs)
	if o.ColdDisks >= nDisks {
		return fmt.Errorf("workload: ColdDisks %d must leave at least one warm disk of %d", o.ColdDisks, nDisks)
	}
	var vols []*trafficVolume
	for i := 0; i < nDisks; i++ {
		cl := e.c.Client(fmt.Sprintf("talloc%d", i), fmt.Sprintf("tvol%d", i))
		for j := 0; j < o.VolumesPerDisk; j++ {
			var rep core.AllocateReply
			err := errTrafficPending
			cl.Allocate(o.VolumeSize, func(r core.AllocateReply, er error) { rep, err = r, er })
			e.settleUntil(func() bool { return !errors.Is(err, errTrafficPending) }, 2*time.Minute)
			if err != nil {
				return fmt.Errorf("workload: allocating tvol%d/%d: %w", i, j, err)
			}
			vols = append(vols, &trafficVolume{space: rep.Space, diskID: rep.DiskID, size: rep.Size})
		}
	}
	// Cold set: the last ColdDisks populated disks in sorted order.
	populated := map[string]bool{}
	for _, v := range vols {
		populated[v.diskID] = true
	}
	var popIDs []string
	for id := range populated {
		popIDs = append(popIDs, id)
	}
	sort.Strings(popIDs)
	e.coldDisks = popIDs[len(popIDs)-o.ColdDisks:]
	cold := map[string]bool{}
	for _, id := range e.coldDisks {
		cold[id] = true
	}
	for _, v := range vols {
		if cold[v.diskID] {
			e.archived = append(e.archived, v)
		} else {
			e.warm = append(e.warm, v)
		}
	}
	// Gateways mount every volume (mounting is metadata-only: it never
	// spins a disk up, so mounting the archival set is free).
	for g := 0; g < o.Gateways; g++ {
		cl := e.c.Client(fmt.Sprintf("gw%d", g), fmt.Sprintf("gwsvc%d", g))
		for _, v := range vols {
			err := errTrafficPending
			cl.Mount(v.space, func(er error) { err = er })
			e.settleUntil(func() bool { return !errors.Is(err, errTrafficPending) }, 2*time.Minute)
			if err != nil {
				return fmt.Errorf("workload: gw%d mounting %s: %w", g, v.space, err)
			}
		}
		e.gws = append(e.gws, cl)
	}
	e.ingestCl = e.c.Client("ingest", "ingest")
	e.ingestBuf = make([]byte, o.IngestSize)
	for i := range e.ingestBuf {
		e.ingestBuf[i] = byte(i*7 + int(o.Seed))
	}
	// Archive: spin the cold disks down (the role the power manager plays
	// after an archival service's idle window).
	e.c.Settle(time.Minute)
	for _, id := range e.coldDisks {
		d := e.c.Disks[id]
		d.SpinDown()
		if st := d.State(); st != disk.StateSpunDown {
			return fmt.Errorf("workload: cold disk %s did not spin down (state %v)", id, st)
		}
	}
	e.logf("traffic setup: %d volumes on %d disks (%d warm, %d archived on %v)",
		len(vols), nDisks, len(e.warm), len(e.archived), e.coldDisks)
	return nil
}

// Run executes the phase timeline and returns the SLO report. The caller
// owns nothing else on the scheduler: Run advances simulated time itself.
func (e *TrafficEngine) Run() *SLOReport {
	o := e.o
	if o.Protect {
		e.prot = core.NewProtector(e.c, *o.ProtectionConfig())
		e.logf("protection armed: slots/disk=%d tenant=%g/s master=%g/s budget=%d spinning",
			o.SlotsPerDisk, o.TenantRate, o.MasterRate, o.MaxSpinning)
	}
	e.start = e.sched.Now()
	for _, id := range e.diskIDs {
		d := e.c.Disks[id]
		d.OnStateChange(func(_, st disk.State) {
			if !e.observing {
				return
			}
			switch st {
			case disk.StateSpinningUp:
				e.spinUps++
			case disk.StateSpunDown:
				e.spinDowns++
			}
		})
	}
	e.observing = true
	e.sampler = e.sched.Every(time.Second, e.sampleActive)
	e.sampleActive()

	for _, cs := range e.classes {
		if cs.spec.Rate > 0 {
			e.steadyLoop(cs)
		}
	}
	e.scheduleIngest()
	if o.StormEnabled {
		e.scheduleStorm()
	}
	for _, ph := range []struct {
		at   time.Duration
		name string
	}{{o.Warmup, PhaseQuiescent}, {o.Warmup + o.Quiescent, PhaseStorm},
		{o.Warmup + o.Quiescent + o.Storm, PhaseDrain}} {
		name := ph.name
		e.sched.After(ph.at, func() { e.logf("traffic phase: %s", name) })
	}

	e.c.Settle(o.total())
	e.stopped = true
	e.settleUntil(func() bool { return e.inflight == 0 }, 2*time.Minute)
	e.sampler.Stop()
	if e.prot != nil {
		e.prot.Stop()
	}
	if e.inflight > 0 {
		e.logf("traffic: %d requests still in flight at teardown", e.inflight)
	}
	e.logf("traffic complete: active disks max %d of %d, %d spin-ups, %d spin-downs",
		e.activeMax, len(e.diskIDs), e.spinUps, e.spinDowns)
	return e.report()
}

// sampleActive updates the spinning-disk high-water mark.
func (e *TrafficEngine) sampleActive() {
	n := 0
	for _, id := range e.diskIDs {
		switch e.c.Disks[id].State() {
		case disk.StateIdle, disk.StateActive, disk.StateSpinningUp:
			n++
		}
	}
	if n > e.activeMax {
		e.activeMax = n
	}
}

// phaseAt maps an arrival time onto the phase timeline.
func (e *TrafficEngine) phaseAt(t simtime.Time) string {
	d := time.Duration(t - e.start)
	switch {
	case d < e.o.Warmup:
		return PhaseWarmup
	case d < e.o.Warmup+e.o.Quiescent:
		return PhaseQuiescent
	case d < e.o.Warmup+e.o.Quiescent+e.o.Storm:
		return PhaseStorm
	default:
		return PhaseDrain
	}
}

// record books one finished request under its arrival phase.
func (e *TrafficEngine) record(cs *classState, phase, outcome string, elapsed time.Duration) {
	cs.counts[phase][outcome]++
	cs.cOut[outcome].Inc()
	if outcome == OutcomeOK || outcome == OutcomeError {
		cs.samples[phase] = append(cs.samples[phase], elapsed)
		cs.hist[phase].ObserveDuration(elapsed)
	}
}

// steadyLoop is a class's open-loop steady arrival process: exponential
// gaps at the diurnal peak rate, thinned to the instantaneous rate.
func (e *TrafficEngine) steadyLoop(cs *classState) {
	peak := cs.spec.Rate * (1 + e.o.DiurnalAmp)
	var next func()
	next = func() {
		if e.stopped {
			return
		}
		e.sched.After(expGap(cs.rng, peak), func() {
			if e.stopped {
				return
			}
			if e.diurnalAccept(cs) {
				tenant, idx := cs.pickTenant()
				vol := e.warm[(idx*7+cs.index)%len(e.warm)]
				off := e.volOffset(cs.rng, vol, cs.spec.IOSize)
				e.request(cs, tenant, idx, vol, off, cs.spec.IOSize, false)
			}
			next()
		})
	}
	next()
}

// diurnalAccept thins the peak-rate arrival stream down to the
// instantaneous diurnal rate (accept/reject keeps one rng draw per
// arrival, so the stream stays aligned across option changes).
func (e *TrafficEngine) diurnalAccept(cs *classState) bool {
	amp := e.o.DiurnalAmp
	if amp <= 0 {
		return true
	}
	t := float64(e.sched.Now()-e.start) / float64(e.o.DiurnalPeriod)
	m := 1 + amp*math.Sin(2*math.Pi*t)
	return cs.rng.Float64()*(1+amp) < m
}

// volOffset draws an aligned in-volume offset for an IO of the given size.
func (e *TrafficEngine) volOffset(rng *rand.Rand, vol *trafficVolume, size int) int64 {
	span := vol.size - int64(size)
	if span <= 0 {
		return 0
	}
	const align = 4096
	return rng.Int63n(span/align+1) * align
}

// request runs one read request end to end: optional directory lookup (the
// master's metadata gate), admission (protected runs), then the data read
// with the class's retry budget. Outcomes are recorded at full elapsed time
// from arrival.
func (e *TrafficEngine) request(cs *classState, tenant string, tenantIdx int, vol *trafficVolume, off int64, size int, withLookup bool) {
	startAt := e.sched.Now()
	phase := e.phaseAt(startAt)
	e.inflight++
	finished := false
	finish := func(outcome string) {
		if finished {
			return
		}
		finished = true
		e.inflight--
		e.record(cs, phase, outcome, time.Duration(e.sched.Now()-startAt))
	}
	gw := e.gws[tenantIdx%len(e.gws)]
	readDone := func(granted bool) func([]byte, error) {
		return func(_ []byte, err error) {
			if granted {
				e.prot.Done(vol.diskID, err)
			}
			switch {
			case err == nil:
				finish(OutcomeOK)
			case core.IsThrottled(err):
				finish(OutcomeThrottled)
			default:
				finish(OutcomeError)
			}
		}
	}
	gated := func() {
		if e.prot == nil {
			gw.ReadWithBudget(vol.space, off, size, cs.spec.Budget, readDone(false))
			return
		}
		e.prot.Admit(cs.spec.Name, tenant, vol.diskID,
			func() { gw.ReadWithBudget(vol.space, off, size, cs.spec.Budget, readDone(true)) },
			func(reason string) {
				if reason == core.RejectThrottled {
					finish(OutcomeThrottled)
				} else {
					finish(OutcomeShed)
				}
			})
	}
	if !withLookup {
		gated()
		return
	}
	gw.Lookup(vol.space, func(_ core.LookupReply, err error) {
		if err != nil {
			if core.IsThrottled(err) {
				finish(OutcomeThrottled)
			} else {
				finish(OutcomeError)
			}
			return
		}
		gated()
	})
}

// scheduleStorm lays out the restore-storm waves across the storm phase.
// Each wave's arrival offsets and targets are drawn eagerly from the storm
// rng at schedule time, so the draw order is independent of completion
// interleaving.
func (e *TrafficEngine) scheduleStorm() {
	o := e.o
	stormStart := o.Warmup + o.Quiescent
	cs := e.byName[ClassBatch]
	if cs == nil || len(e.archived) == 0 {
		return
	}
	rate := float64(o.WaveSize) / o.WaveSpread.Seconds()
	for w := 0; ; w++ {
		waveAt := stormStart + time.Duration(w)*o.WaveEvery
		if waveAt >= stormStart+o.Storm {
			break
		}
		wave := w
		e.sched.After(waveAt, func() {
			e.logf("restore storm: wave %d (%d requests over ~%v)", wave, o.WaveSize, o.WaveSpread)
			at := time.Duration(0)
			for i := 0; i < o.WaveSize; i++ {
				at += expGap(e.stormRng, rate)
				tenant, idx := cs.pickTenant()
				var vol *trafficVolume
				warmRead := e.stormRng.Float64() < o.WaveWarmFraction
				if warmRead {
					vol = e.warm[e.stormRng.Intn(len(e.warm))]
				} else {
					vol = e.archived[e.stormRng.Intn(len(e.archived))]
				}
				off := e.volOffset(e.stormRng, vol, cs.spec.IOSize)
				lookup := !warmRead // recalls resolve the archived volume first
				e.sched.After(at, func() {
					if e.stopped {
						return
					}
					e.request(cs, tenant, idx, vol, off, cs.spec.IOSize, lookup)
				})
			}
		})
	}
}

// scheduleIngest lays out the archival-ingest campaigns: bursts of
// allocate-mount-write against fresh archival volumes.
func (e *TrafficEngine) scheduleIngest() {
	o := e.o
	cs := e.byName[ClassIngest]
	if cs == nil || o.IngestRate <= 0 || o.IngestLen <= 0 {
		return
	}
	activeEnd := o.Warmup + o.Quiescent + o.Storm // campaigns stay out of drain
	for k := 0; ; k++ {
		at := o.IngestStart + time.Duration(k)*o.IngestEvery
		if at+o.IngestLen > activeEnd {
			break
		}
		campaign := k
		e.sched.After(at, func() {
			n := 0
			tt := time.Duration(0)
			for {
				tt += expGap(cs.rng, o.IngestRate)
				if tt > o.IngestLen {
					break
				}
				n++
				tenant, _ := cs.pickTenant()
				e.sched.After(tt, func() {
					if e.stopped {
						return
					}
					e.ingestOp(cs, tenant)
				})
			}
			e.logf("ingest campaign %d: %d archival writes over %v", campaign, n, o.IngestLen)
		})
	}
}

// ingestOp is one archival-ingest operation: allocate a fresh volume,
// mount it, and write the ingest payload (gated by admission on the disk
// the allocation landed on).
func (e *TrafficEngine) ingestOp(cs *classState, tenant string) {
	startAt := e.sched.Now()
	phase := e.phaseAt(startAt)
	e.inflight++
	finished := false
	finish := func(outcome string) {
		if finished {
			return
		}
		finished = true
		e.inflight--
		e.record(cs, phase, outcome, time.Duration(e.sched.Now()-startAt))
	}
	fail := func(err error) {
		if core.IsThrottled(err) {
			finish(OutcomeThrottled)
		} else {
			finish(OutcomeError)
		}
	}
	cl := e.ingestCl
	cl.Allocate(e.o.VolumeSize, func(rep core.AllocateReply, err error) {
		if err != nil {
			fail(err)
			return
		}
		cl.Mount(rep.Space, func(err error) {
			if err != nil {
				fail(err)
				return
			}
			write := func(granted bool) {
				cl.Write(rep.Space, 0, e.ingestBuf, func(err error) {
					if granted {
						e.prot.Done(rep.DiskID, err)
					}
					if err != nil {
						fail(err)
						return
					}
					finish(OutcomeOK)
				})
			}
			if e.prot == nil {
				write(false)
				return
			}
			e.prot.Admit(cs.spec.Name, tenant, rep.DiskID,
				func() { write(true) },
				func(reason string) {
					if reason == core.RejectThrottled {
						finish(OutcomeThrottled)
					} else {
						finish(OutcomeShed)
					}
				})
		})
	})
}

// report assembles the SLO report from the per-class accounting.
func (e *TrafficEngine) report() *SLOReport {
	r := &SLOReport{
		Seed:           e.o.Seed,
		Protected:      e.o.Protect,
		Storm:          e.o.StormEnabled,
		ActiveDisksMax: e.activeMax,
		TotalDisks:     len(e.diskIDs),
		SpinUps:        e.spinUps,
		SpinDowns:      e.spinDowns,
	}
	if e.prot != nil {
		r.BreakerOpens = e.prot.BreakerOpens
	}
	for _, cs := range e.classes {
		for _, ph := range Phases {
			r.Rows = append(r.Rows, sloRow(cs.spec.Name, ph, cs.counts[ph], cs.samples[ph]))
			// The row captured the quantiles; the sample arena is dead.
			// Recycle it for the next run (or next sweep seed).
			putSampleSlice(cs.samples[ph])
			cs.samples[ph] = nil
		}
	}
	return r
}
