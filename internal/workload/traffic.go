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

// ClassSpec describes one tenant class (an admission-priority tier). The
// embedded policy.ClassConfig is the class's admission tier: Name,
// Priority (lower is served first; keep priorities unique across
// classes), and the QueueLimit / MaxWait of its queue in protected runs.
type ClassSpec struct {
	policy.ClassConfig
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
}

// TrafficOptions parameterizes a traffic run. Start from
// DefaultTrafficOptions — goldens, CI smoke, and the acceptance tests all
// share it.
type TrafficOptions struct {
	Seed    int64
	Classes []ClassSpec

	// Phase timeline (all phases run back to back).
	Warmup    time.Duration
	Quiescent time.Duration
	Storm     time.Duration
	Drain     time.Duration

	// StormEnabled adds the restore-storm waves to the storm phase.
	StormEnabled bool
	// Protect arms the overload-protection stack (core.Protector plus
	// master-side throttling; see ProtectionConfig()).
	Protect bool
}

// The engine's fixed shape. Placement: every disk gets volumesPerDisk
// volumes of volumeSize bytes; the last coldDisks disks (sorted by name)
// are archival — spun down after setup, recalled only by the storm — and
// gateways frontend clients carry tenant traffic (tenants hash onto them).
const (
	volumeSize     = 8 << 20
	volumesPerDisk = 2
	coldDisks      = 2
	gateways       = 4
)

// Diurnal modulation: the steady arrival rate breathes as
// Rate * (1 + diurnalAmp*sin(2*pi*t/diurnalPeriod)), thinned from the
// peak rate so the rng draw sequence stays one-per-arrival.
const (
	diurnalAmp    = 0.25
	diurnalPeriod = 10 * time.Minute
)

// Restore storm: during the storm phase, every waveEvery a wave of
// waveSize batch-class requests arrives over ~waveSpread.
// waveWarmFraction of them re-read warm volumes (the restore pipeline's
// catalog traffic — what actually tramples premium); the rest mass-recall
// archived volumes on spun-down disks.
const (
	waveEvery        = 60 * time.Second
	waveSize         = 800
	waveSpread       = 2 * time.Second
	waveWarmFraction = 0.6
)

// Archival-ingest campaigns: windows of ingestLen starting at ingestStart
// and repeating every ingestEvery, during which the ingest class allocates
// fresh archival volumes and writes ingestSize bytes into each, at
// ingestRate ops/sec.
const (
	ingestStart = 2 * time.Minute
	ingestEvery = 8 * time.Minute
	ingestLen   = time.Minute
	ingestRate  = 1.0
	ingestSize  = 128 << 10
)

// Canonical class names used by DefaultTrafficOptions and the storm/ingest
// machinery.
const (
	ClassPremium  = "premium"
	ClassStandard = "standard"
	ClassIngest   = "ingest"
	ClassBatch    = "batch"
)

// DefaultTrafficOptions is the shared traffic configuration: four tenant
// classes over a ~24-minute timeline, for a 3-host 6-disk unit.
func DefaultTrafficOptions(seed int64) TrafficOptions {
	return TrafficOptions{
		Seed: seed,
		Classes: []ClassSpec{
			{ClassConfig: policy.ClassConfig{Name: ClassPremium, Priority: 0, QueueLimit: 64, MaxWait: 2 * time.Second},
				Tenants: 12, ZipfS: 1.2, Rate: 4.0, IOSize: 256 << 10, Budget: 4 * time.Second},
			{ClassConfig: policy.ClassConfig{Name: ClassStandard, Priority: 1, QueueLimit: 96, MaxWait: 10 * time.Second},
				Tenants: 16, ZipfS: 1.2, Rate: 1.5, IOSize: 1 << 20, Budget: 10 * time.Second},
			{ClassConfig: policy.ClassConfig{Name: ClassIngest, Priority: 2, QueueLimit: 64, MaxWait: 15 * time.Second},
				Tenants: 6, ZipfS: 1.1, Rate: 0, IOSize: 128 << 10, Budget: 15 * time.Second},
			{ClassConfig: policy.ClassConfig{Name: ClassBatch, Priority: 3, QueueLimit: 256, MaxWait: 20 * time.Second},
				Tenants: 10, ZipfS: 1.1, Rate: 0.3, IOSize: 4 << 20, Budget: 25 * time.Second},
		},
		Warmup:    4 * time.Minute,
		Quiescent: 10 * time.Minute,
		Storm:     6 * time.Minute,
		Drain:     4 * time.Minute,
	}
}

// ProtectionConfig translates the options into the core protection stack's
// configuration: the admission classes are the traffic classes' tiers.
func (o TrafficOptions) ProtectionConfig() *core.ProtectionConfig {
	pc := &core.ProtectionConfig{}
	for _, cs := range o.Classes {
		pc.Classes = append(pc.Classes, cs.ClassConfig)
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
	tenants []string                   // tenant names by index: "<class>-tNN"
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
	// reqs and arrivals recycle request and arrival records.
	reqs     simtime.FreeList[trafficReq]
	arrivals simtime.FreeList[arrival]

	activeMax int
	spinUps   int
	spinDowns int
	observing bool // state-change observers armed (post-setup)

	sampler *simtime.Ticker
}

var errTrafficPending = errors.New("workload: pending")

// NewTrafficEngine builds the engine over a booted cluster. logf receives
// the engine's event-log lines.
func NewTrafficEngine(c *core.Cluster, o TrafficOptions, logf func(string, ...any)) *TrafficEngine {
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
			tenants: make([]string, max(spec.Tenants, 1)),
			counts:  make(map[string]map[string]int),
			samples: make(map[string][]time.Duration),
			cOut:    make(map[string]*obs.Counter),
			hist:    make(map[string]*obs.Histogram),
		}
		for t := range cs.tenants {
			cs.tenants[t] = fmt.Sprintf("%s-t%02d", spec.Name, t)
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
	return cs.tenants[i], i
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
	if coldDisks >= nDisks {
		return fmt.Errorf("workload: %d cold disks must leave at least one warm disk of %d", coldDisks, nDisks)
	}
	var vols []*trafficVolume
	for i := 0; i < nDisks; i++ {
		cl := e.c.Client(fmt.Sprintf("talloc%d", i), fmt.Sprintf("tvol%d", i))
		for j := 0; j < volumesPerDisk; j++ {
			var rep core.AllocateReply
			err := errTrafficPending
			cl.Allocate(volumeSize, func(r core.AllocateReply, er error) { rep, err = r, er })
			e.settleUntil(func() bool { return !errors.Is(err, errTrafficPending) }, 2*time.Minute)
			if err != nil {
				return fmt.Errorf("workload: allocating tvol%d/%d: %w", i, j, err)
			}
			vols = append(vols, &trafficVolume{space: rep.Space, diskID: rep.DiskID, size: rep.Size})
		}
	}
	// Cold set: the last coldDisks populated disks in sorted order.
	populated := map[string]bool{}
	for _, v := range vols {
		populated[v.diskID] = true
	}
	var popIDs []string
	for id := range populated {
		popIDs = append(popIDs, id)
	}
	sort.Strings(popIDs)
	e.coldDisks = popIDs[len(popIDs)-coldDisks:]
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
	for g := 0; g < gateways; g++ {
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
	e.ingestBuf = make([]byte, ingestSize)
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
		e.logf("protection armed: %s", e.prot)
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
		e.sched.FireAfter(ph.at, func() { e.logf("traffic phase: %s", name) })
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
// gaps at the diurnal peak rate, thinned to the instantaneous rate. One
// steadyArrivals record per class is the receiver of every arrival.
func (e *TrafficEngine) steadyLoop(cs *classState) {
	(&steadyArrivals{e: e, cs: cs, peak: cs.spec.Rate * (1 + diurnalAmp)}).next()
}

// steadyArrivals is one class's steady arrival process.
type steadyArrivals struct {
	e    *TrafficEngine
	cs   *classState
	peak float64
}

// next arms the class's next arrival.
func (a *steadyArrivals) next() {
	if a.e.stopped {
		return
	}
	a.e.sched.FireAfterR(expGap(a.cs.rng, a.peak), a)
}

// Fire is one arrival: thinned to the diurnal rate, it becomes a request.
func (a *steadyArrivals) Fire() {
	e, cs := a.e, a.cs
	if e.stopped {
		return
	}
	if e.diurnalAccept(cs) {
		tenant, idx := cs.pickTenant()
		vol := e.warm[(idx*7+cs.index)%len(e.warm)]
		off := e.volOffset(cs.rng, vol, cs.spec.IOSize)
		e.request(cs, tenant, idx, vol, off, cs.spec.IOSize, false)
	}
	a.next()
}

// diurnalAccept thins the peak-rate arrival stream down to the
// instantaneous diurnal rate (accept/reject keeps one rng draw per
// arrival, so the stream stays aligned across option changes).
func (e *TrafficEngine) diurnalAccept(cs *classState) bool {
	t := float64(e.sched.Now()-e.start) / float64(diurnalPeriod)
	m := 1 + diurnalAmp*math.Sin(2*math.Pi*t)
	return cs.rng.Float64()*(1+diurnalAmp) < m
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
// with the class's retry budget. The engine only times its reads, so they
// are discard reads. Outcomes are recorded at full elapsed time from
// arrival.
func (e *TrafficEngine) request(cs *classState, tenant string, tenantIdx int, vol *trafficVolume, off int64, size int, withLookup bool) {
	r := e.begin(cs, tenant, e.gws[tenantIdx%len(e.gws)])
	r.vol, r.off, r.size = vol, off, size
	if !withLookup {
		r.gated()
		return
	}
	r.gw.Lookup(vol.space, r.onLookup)
}

// ingestOp is one archival-ingest operation: allocate a fresh volume,
// mount it, and write the ingest payload (gated by admission on the disk
// the allocation landed on).
func (e *TrafficEngine) ingestOp(cs *classState, tenant string) {
	r := e.begin(cs, tenant, e.ingestCl)
	r.ingest = true
	r.gw.Allocate(volumeSize, r.onAllocate)
}

// trafficReq is one request's state — a read, or an ingest op — and the
// receiver of each of its steps: the lookup's or the allocation's and the
// mount's replies, admission's grant or shed, and the IO's completion.
// Each step hands off to exactly one next callback,
// so the request is done with its record when it finishes: finish records
// the outcome and gives the record back to TrafficEngine.reqs, and no
// callback of the request runs after it.
type trafficReq struct {
	e        *TrafficEngine
	cs       *classState
	phase    string
	startAt  simtime.Time
	tenant   string
	gw       *core.ClientLib
	vol      *trafficVolume // the volume read, or &fresh
	fresh    trafficVolume  // an ingest op's allocation
	off      int64
	size     int
	ingest   bool // allocate, mount and write instead of reading
	granted  bool // admission granted a slot: Done must release it
	finished bool
	// Each step's completion, bound once per record.
	onLookup   func(core.LookupReply, error)
	onAllocate func(core.AllocateReply, error)
	onMount    func(error)
	onRead     func([]byte, error)
	onWrite    func(error)
	onGrant    func()
	onShed     func(policy.ShedReason)
}

// begin starts a request of class cs at the current instant.
func (e *TrafficEngine) begin(cs *classState, tenant string, gw *core.ClientLib) *trafficReq {
	r, fresh := e.reqs.Get()
	if fresh {
		r.e = e
		r.onLookup, r.onAllocate, r.onMount = r.lookedUp, r.allocated, r.mounted
		r.onRead, r.onWrite = r.read, r.done
		r.onGrant, r.onShed = r.admitted, r.refused
	}
	r.cs, r.tenant, r.gw = cs, tenant, gw
	r.startAt = e.sched.Now()
	r.phase = e.phaseAt(r.startAt)
	e.inflight++
	return r
}

// finish books the request's outcome and gives its record back.
func (r *trafficReq) finish(outcome string) {
	if r.finished {
		panic("workload: a traffic request finished twice")
	}
	r.finished = true
	e := r.e
	e.inflight--
	e.record(r.cs, r.phase, outcome, time.Duration(e.sched.Now()-r.startAt))
	r.cs, r.gw, r.vol, r.tenant, r.phase, r.fresh = nil, nil, nil, "", "", trafficVolume{}
	r.ingest, r.granted, r.finished = false, false, false
	e.reqs.Put(r)
}

func (r *trafficReq) lookedUp(_ core.LookupReply, err error) {
	if err != nil {
		r.finish(errOutcome(err))
		return
	}
	r.gated()
}

func (r *trafficReq) allocated(rep core.AllocateReply, err error) {
	if err != nil {
		r.finish(errOutcome(err))
		return
	}
	r.fresh = trafficVolume{space: rep.Space, diskID: rep.DiskID, size: rep.Size}
	r.vol = &r.fresh
	r.gw.Mount(rep.Space, r.onMount)
}

func (r *trafficReq) mounted(err error) {
	if err != nil {
		r.finish(errOutcome(err))
		return
	}
	r.gated()
}

// gated does the IO through admission in protected runs, directly
// otherwise.
func (r *trafficReq) gated() {
	if r.e.prot == nil {
		r.startIO()
		return
	}
	r.e.prot.Admit(r.cs.spec.Name, r.tenant, r.vol.diskID, r.onGrant, r.onShed)
}

// admitted is admission's go-ahead.
func (r *trafficReq) admitted() {
	r.granted = true
	r.startIO()
}

// refused is admission's refusal.
func (r *trafficReq) refused(reason policy.ShedReason) {
	if reason == core.RejectThrottled {
		r.finish(OutcomeThrottled)
	} else {
		r.finish(OutcomeShed)
	}
}

func (r *trafficReq) startIO() {
	if r.ingest {
		r.gw.Write(r.vol.space, 0, r.e.ingestBuf, r.onWrite)
	} else {
		r.gw.ReadDiscard(r.vol.space, r.off, r.size, r.cs.spec.Budget, r.onRead)
	}
}

func (r *trafficReq) read(_ []byte, err error) { r.done(err) }

// done ends the IO: it releases an admission slot and books the outcome.
func (r *trafficReq) done(err error) {
	if r.granted {
		r.e.prot.Done(r.vol.diskID, err)
	}
	r.finish(errOutcome(err))
}

// errOutcome is the outcome a request that ended with err is booked under.
func errOutcome(err error) string {
	switch {
	case err == nil:
		return OutcomeOK
	case errors.Is(err, core.ErrThrottled):
		return OutcomeThrottled
	default:
		return OutcomeError
	}
}

// arrival is one scheduled storm read or ingest op, drawn when its wave or
// campaign was laid out; vol is nil for an ingest op. The record goes back
// to TrafficEngine.arrivals when it fires.
type arrival struct {
	e      *TrafficEngine
	cs     *classState
	tenant string
	idx    int
	vol    *trafficVolume
	off    int64
	lookup bool
}

func (e *TrafficEngine) newArrival() *arrival {
	a, fresh := e.arrivals.Get()
	if fresh {
		a.e = e
	}
	return a
}

func (a *arrival) Fire() {
	e, cs, tenant, idx, vol, off, lookup := a.e, a.cs, a.tenant, a.idx, a.vol, a.off, a.lookup
	*a = arrival{e: e}
	e.arrivals.Put(a)
	switch {
	case e.stopped:
	case vol == nil:
		e.ingestOp(cs, tenant)
	default:
		e.request(cs, tenant, idx, vol, off, cs.spec.IOSize, lookup)
	}
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
	rate := float64(waveSize) / waveSpread.Seconds()
	for w := 0; ; w++ {
		waveAt := stormStart + time.Duration(w)*waveEvery
		if waveAt >= stormStart+o.Storm {
			break
		}
		wave := w
		e.sched.FireAfter(waveAt, func() {
			e.logf("restore storm: wave %d (%d requests over ~%v)", wave, waveSize, waveSpread)
			at := time.Duration(0)
			for i := 0; i < waveSize; i++ {
				at += expGap(e.stormRng, rate)
				tenant, idx := cs.pickTenant()
				var vol *trafficVolume
				warmRead := e.stormRng.Float64() < waveWarmFraction
				if warmRead {
					vol = e.warm[e.stormRng.Intn(len(e.warm))]
				} else {
					vol = e.archived[e.stormRng.Intn(len(e.archived))]
				}
				off := e.volOffset(e.stormRng, vol, cs.spec.IOSize)
				a := e.newArrival()
				a.cs, a.tenant, a.idx, a.vol, a.off = cs, tenant, idx, vol, off
				a.lookup = !warmRead // recalls resolve the archived volume first
				e.sched.FireAfterR(at, a)
			}
		})
	}
}

// scheduleIngest lays out the archival-ingest campaigns: bursts of
// allocate-mount-write against fresh archival volumes.
func (e *TrafficEngine) scheduleIngest() {
	o := e.o
	cs := e.byName[ClassIngest]
	if cs == nil {
		return
	}
	activeEnd := o.Warmup + o.Quiescent + o.Storm // campaigns stay out of drain
	for k := 0; ; k++ {
		at := ingestStart + time.Duration(k)*ingestEvery
		if at+ingestLen > activeEnd {
			break
		}
		campaign := k
		e.sched.FireAfter(at, func() {
			n := 0
			tt := time.Duration(0)
			for {
				tt += expGap(cs.rng, ingestRate)
				if tt > ingestLen {
					break
				}
				n++
				a := e.newArrival()
				a.cs = cs
				a.tenant, _ = cs.pickTenant()
				e.sched.FireAfterR(tt, a)
			}
			e.logf("ingest campaign %d: %d archival writes over %v", campaign, n, ingestLen)
		})
	}
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
