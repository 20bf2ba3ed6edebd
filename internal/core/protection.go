package core

import (
	"fmt"
	"slices"
	"time"

	"ustore/internal/disk"
	"ustore/internal/obs"
	"ustore/internal/policy"
	"ustore/internal/simtime"
)

// Server-side overload protection: the policy package's primitives wired
// into a cluster. PR 5's mitigation stack protects a CLIENT from a gray
// server; this protects the SERVER from its clients — the restore-storm
// scenario where an incident makes every tenant recall archived data at
// once and the handful of spinning disks would otherwise drown.
//
// The stack has three gates in front of every data request:
//
//  1. per-tenant token buckets (rate + burst per tenant identity) — the
//     noisy tenant is clipped before it reaches shared queues;
//  2. a per-disk server-side circuit breaker (policy.Breaker, the same
//     state machine the client mitigation uses per target) — a disk whose
//     requests keep failing fast-fails new arrivals for a cool-down;
//  3. class-priority admission control (policy.Admission) with bounded
//     queues, deadline shedding, and one-IO-per-disk slots, so the
//     backlog lives where the shedder can see it instead of in disk
//     queues.
//
// Behind the gates a spin-up-aware autoscaler (policy.AutoScaler) watches
// per-disk demand and trades queue depth against the paper's power
// budget: cold disks with backlog spin up (bounded by the budget and an
// inrush cap), scaler-spun disks idle past the window spin back down.
//
// Independently, Config.Protection arms a per-caller token bucket at the
// Master's metadata RPC entry points (see master.go): recall storms hammer
// Lookup/Allocate too, and a throttled caller gets ErrThrottled instead of
// a seat in the run queue. A nil Config.Protection disables the whole
// stack, keeping default runs byte-identical; an armed stack always runs
// every piece, with the fixed tuning below.

// The protection stack's tuning: one IO per disk so backlog stays in the
// admission queues, tenants clipped at 3 req/s, the master's metadata RPCs
// at 5 per caller per second, and a power budget of 5 spinning disks
// started one at a time; a disk the scaler spun up goes back down after
// 30 s without demand.
const (
	slotsPerDisk  = 1
	tenantRate    = 3
	tenantBurst   = 12
	masterRate    = 5
	masterBurst   = 10
	maxSpinning   = 5
	maxSpinningUp = 1
	idleAfter     = 30 * time.Second
)

// ProtectionConfig parameterizes the protection stack.
type ProtectionConfig struct {
	// Classes are the admission classes (tenant tiers), best first.
	Classes []policy.ClassConfig
}

// Protector is the cluster-level protection stack. Create one with
// NewProtector after the cluster boots; all methods run on the scheduler
// goroutine.
type Protector struct {
	c     *Cluster
	sched *simtime.Scheduler
	adm   *policy.Admission
	scale *policy.AutoScaler

	tenants    map[string]*policy.TokenBucket
	tenantPool *policy.BucketPool
	brk        map[string]*policy.Breaker
	// managed marks disks the autoscaler spun up (its spin-down
	// candidates); the baseline active set is never scaled down.
	managed map[string]bool
	// idleSince records when a managed disk's demand last hit zero.
	idleSince map[string]simtime.Time

	// ids is the cluster's disk IDs, sorted (Cluster.Disks is fixed once
	// the unit is built); states is tick's reused autoscaler input.
	ids    []string
	states []policy.DiskState
	// admissions recycles admission records.
	admissions simtime.FreeList[admission]

	cAdmitted  map[string]*obs.Counter
	cThrottled map[string]*obs.Counter
	cShed      map[string]map[string]*obs.Counter
	cSpinUps   *obs.Counter
	cSpinDowns *obs.Counter
	cOpens     *obs.Counter
	gDepth     *obs.Gauge
	gActive    *obs.Gauge

	// Counters for reports and tests.
	Throttled    map[string]uint64 // per class
	BreakerTrips map[string]uint64 // per class (fast-fails at an open breaker)
	SpinUps      uint64
	SpinDowns    uint64
	BreakerOpens uint64

	ticker *simtime.Ticker
}

// protTickInterval is the autoscale/deadline poll period: fine enough to
// shed on time against second-scale deadlines, coarse enough not to
// dominate the event budget.
const protTickInterval = 250 * time.Millisecond

// The reasons Admit sheds a request before it reaches the admission
// queues; the queues' own sheds carry policy's reasons.
const (
	RejectThrottled policy.ShedReason = "throttled"
	RejectBreaker   policy.ShedReason = "breaker-open"
)

// NewProtector wires the protection stack over the cluster's disks and
// starts the autoscale/poll ticker. Disks currently spinning form the
// baseline active set: they are ready immediately, never scaled down, and
// their count is the autoscaler's floor.
func NewProtector(c *Cluster, pc ProtectionConfig) *Protector {
	rec := c.Cfg.Recorder
	p := &Protector{
		c:          c,
		sched:      c.Sched,
		adm:        policy.NewAdmission(pc.Classes, slotsPerDisk),
		tenants:    make(map[string]*policy.TokenBucket),
		tenantPool: policy.NewBucketPool(tenantRate, tenantBurst),
		brk:        make(map[string]*policy.Breaker),
		managed:    make(map[string]bool),
		idleSince:  make(map[string]simtime.Time),
		cAdmitted:  make(map[string]*obs.Counter),
		cThrottled: make(map[string]*obs.Counter),
		cShed:      make(map[string]map[string]*obs.Counter),
		cSpinUps:   rec.Counter("policy", "spinups_total"),
		cSpinDowns: rec.Counter("policy", "spindowns_total"),
		cOpens:     rec.Counter("policy", "breaker_opens_total"),
		gDepth:     rec.Gauge("policy", "queue_depth"),
		gActive:    rec.Gauge("policy", "active_disks"),

		Throttled:    make(map[string]uint64),
		BreakerTrips: make(map[string]uint64),
	}
	for _, cc := range pc.Classes {
		p.cAdmitted[cc.Name] = rec.Counter("policy", "admitted_total", obs.L("class", cc.Name))
		p.cThrottled[cc.Name] = rec.Counter("policy", "throttled_total", obs.L("class", cc.Name))
		p.cShed[cc.Name] = map[string]*obs.Counter{
			string(policy.ShedQueueFull): rec.Counter("policy", "shed_total",
				obs.L("class", cc.Name), obs.L("reason", string(policy.ShedQueueFull))),
			string(policy.ShedDeadline): rec.Counter("policy", "shed_total",
				obs.L("class", cc.Name), obs.L("reason", string(policy.ShedDeadline))),
		}
	}
	for id := range c.Disks {
		p.ids = append(p.ids, id)
	}
	slices.Sort(p.ids)
	now := p.sched.Now()
	baseline := 0
	for _, id := range p.ids {
		d := c.Disks[id]
		if diskSpinning(d.State()) {
			baseline++
		}
		p.adm.SetReady(now, id, diskReady(d.State()))
		id := id
		d.OnStateChange(func(_, newState disk.State) {
			p.adm.SetReady(p.sched.Now(), id, diskReady(newState))
		})
	}
	p.scale = policy.NewAutoScaler(policy.AutoScalerConfig{
		MinSpinning:   baseline,
		MaxSpinning:   maxSpinning,
		MaxSpinningUp: maxSpinningUp,
		IdleAfter:     idleAfter,
	})
	p.ticker = p.sched.Every(protTickInterval, p.tick)
	return p
}

// String names the stack's tuning for the run log.
func (p *Protector) String() string {
	return fmt.Sprintf("slots/disk=%d tenant=%d/s master=%d/s budget=%d spinning",
		slotsPerDisk, tenantRate, masterRate, maxSpinning)
}

// diskReady: a disk can accept grants while spinning with the motor up.
func diskReady(s disk.State) bool {
	return s == disk.StateIdle || s == disk.StateActive
}

// diskSpinning: a disk draws spindle power while up or spinning up.
func diskSpinning(s disk.State) bool {
	return diskReady(s) || s == disk.StateSpinningUp
}

// Stop halts the autoscale ticker (end of run).
func (p *Protector) Stop() { p.ticker.Stop() }

// Admit gates one request for the given tenant/class against diskID.
// Exactly one of grant or shed is called, once, possibly synchronously:
// shed with RejectThrottled (tenant over rate), RejectBreaker (disk
// breaker open), or a policy shed reason; grant when the disk has a free
// slot (callers MUST call Done when the granted work finishes). Requests
// for cold disks queue — the autoscaler sees their demand and spins the
// disk up — until the class deadline sheds them. A caller that binds its
// two callbacks once per record of its own admits without allocating.
func (p *Protector) Admit(class, tenant, diskID string, grant func(), shed func(policy.ShedReason)) {
	now := p.sched.Now()
	tb := p.tenants[tenant]
	if tb == nil {
		tb = p.tenantPool.Get()
		p.tenants[tenant] = tb
	}
	if !tb.Allow(now) {
		p.Throttled[class]++
		p.cThrottled[class].Inc()
		shed(RejectThrottled)
		return
	}
	if br := p.brk[diskID]; br != nil && br.Open(now) {
		p.BreakerTrips[class]++
		p.cShedFor(class, string(RejectBreaker)).Inc()
		shed(RejectBreaker)
		return
	}
	a, fresh := p.admissions.Get()
	if fresh {
		a.p, a.onGrant, a.onShed = p, a.passGrant, a.passShed
	}
	a.class, a.grant, a.shed = class, grant, shed
	p.adm.Submit(now, class, diskID, a.onGrant, a.onShed)
}

// admission is one Admit waiting in the admission queues. Its onGrant and
// onShed, bound once per record, are what the queues call: they count the
// outcome under its class and pass it on to the caller's callback. The
// queues call exactly one of them, once; the record goes back to
// Protector.admissions after the caller's callback returns.
type admission struct {
	p       *Protector
	class   string
	grant   func()
	shed    func(policy.ShedReason)
	onGrant func()
	onShed  func(policy.ShedReason)
}

func (a *admission) passGrant() {
	a.p.cAdmitted[a.class].Inc()
	a.grant()
	a.release()
}

func (a *admission) passShed(r policy.ShedReason) {
	a.p.cShedFor(a.class, string(r)).Inc()
	a.shed(r)
	a.release()
}

func (a *admission) release() {
	a.class, a.grant, a.shed = "", nil, nil
	a.p.admissions.Put(a)
}

// cShedFor resolves (lazily for non-preregistered reasons) the shed
// counter for a class/reason pair.
func (p *Protector) cShedFor(class, reason string) *obs.Counter {
	m := p.cShed[class]
	if m == nil {
		m = make(map[string]*obs.Counter)
		p.cShed[class] = m
	}
	c, ok := m[reason]
	if !ok {
		c = p.c.Cfg.Recorder.Counter("policy", "shed_total",
			obs.L("class", class), obs.L("reason", reason))
		m[reason] = c
	}
	return c
}

// Done releases a granted request's disk slot and feeds the disk's
// breaker with the outcome.
func (p *Protector) Done(diskID string, err error) {
	now := p.sched.Now()
	br := p.brk[diskID]
	if br == nil {
		br = &policy.Breaker{}
		p.brk[diskID] = br
	}
	if err != nil {
		if br.OnFailure(now) {
			p.BreakerOpens++
			p.cOpens.Inc()
			p.c.Cfg.Recorder.Instant("policy", "breaker-open", "protector",
				obs.L("disk", diskID))
		}
	} else {
		br.OnSuccess()
	}
	p.adm.Release(now, diskID)
}

// tick runs deadline shedding, refreshes gauges, and executes one
// autoscale plan.
func (p *Protector) tick() {
	now := p.sched.Now()
	p.adm.Poll(now)
	p.gDepth.Set(float64(p.adm.QueueDepth()))

	active := 0
	states := p.states[:0]
	for _, id := range p.ids {
		d := p.c.Disks[id]
		st := d.State()
		spinning := diskSpinning(st)
		if spinning {
			active++
		}
		dem := p.adm.Demand(id) + d.QueueDepth()
		if p.managed[id] && dem == 0 {
			if _, ok := p.idleSince[id]; !ok {
				p.idleSince[id] = now
			}
		} else {
			delete(p.idleSince, id)
		}
		states = append(states, policy.DiskState{
			Name:               id,
			Spinning:           spinning,
			SpinningUp:         st == disk.StateSpinningUp,
			Demand:             dem,
			ScaleDownCandidate: p.managed[id],
			IdleSince:          p.idleSince[id],
		})
	}
	p.states = states
	p.gActive.Set(float64(active))
	up, down := p.scale.Plan(now, states)
	for _, id := range up {
		p.managed[id] = true
		p.SpinUps++
		p.cSpinUps.Inc()
		p.c.Cfg.Recorder.Instant("policy", "scale-up", "protector", obs.L("disk", id))
		p.c.Disks[id].SpinUp()
	}
	for _, id := range down {
		d := p.c.Disks[id]
		d.SpinDown()
		if d.State() == disk.StateSpunDown {
			delete(p.managed, id)
			delete(p.idleSince, id)
			p.SpinDowns++
			p.cSpinDowns.Inc()
			p.c.Cfg.Recorder.Instant("policy", "scale-down", "protector", obs.L("disk", id))
		}
	}
}
