package policy

import (
	"testing"
	"time"

	"ustore/internal/simtime"
)

func at(d time.Duration) simtime.Time { return simtime.Time(d) }

func TestTokenBucketBurstThenRate(t *testing.T) {
	tb := &TokenBucket{Rate: 2, Burst: 4}
	now := at(0)
	for i := 0; i < 4; i++ {
		if !tb.Allow(now) {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if tb.Allow(now) {
		t.Fatal("request beyond burst admitted")
	}
	// 1s refills 2 tokens.
	now = at(time.Second)
	if tb.refill(now); tb.tokens != 2 {
		t.Fatalf("tokens after 1s = %g, want 2", tb.tokens)
	}
	if !tb.TakeN(now, 2) {
		t.Fatal("refilled tokens not spendable")
	}
	if tb.Allow(now) {
		t.Fatal("empty bucket admitted")
	}
	// Refill clamps at Burst.
	now = at(time.Hour)
	if tb.refill(now); tb.tokens != 4 {
		t.Fatalf("tokens after an hour = %g, want burst cap 4", tb.tokens)
	}
}

func TestBreakerOpensAndProbes(t *testing.T) {
	b := &Breaker{}
	now := at(0)
	if b.Open(now) {
		t.Fatal("fresh breaker open")
	}
	if b.OnFailure(now) || b.OnFailure(now) {
		t.Fatal("breaker opened before threshold")
	}
	if !b.OnFailure(now) {
		t.Fatal("third failure did not open the breaker")
	}
	if !b.Open(at(time.Second)) {
		t.Fatal("breaker closed during cool-down")
	}
	// Cool-down over: exactly one probe slips through.
	probe := at(6 * time.Second)
	if b.Open(probe) {
		t.Fatal("half-open probe was refused")
	}
	if !b.Open(probe) {
		t.Fatal("second request during probe not refused")
	}
	// Failed probe re-opens (and reports the transition).
	if !b.OnFailure(probe) {
		t.Fatal("failed probe did not re-open")
	}
	if !b.Open(at(7 * time.Second)) {
		t.Fatal("breaker closed after failed probe")
	}
	// Successful probe closes fully.
	later := at(12 * time.Second)
	if b.Open(later) {
		t.Fatal("probe refused after second cool-down")
	}
	b.OnSuccess()
	if b.Open(later) {
		t.Fatal("breaker open after clean success")
	}
	if b.fails != 0 {
		t.Fatalf("fails = %d after success, want 0", b.fails)
	}
}

func TestBreakerZeroValueDefaults(t *testing.T) {
	b := &Breaker{}
	now := at(0)
	opened := false
	for i := 0; i < DefaultBreakerFails; i++ {
		opened = b.OnFailure(now)
	}
	if !opened {
		t.Fatal("default threshold did not open the breaker")
	}
	if !b.Open(at(DefaultBreakerOpenFor - time.Millisecond)) {
		t.Fatal("breaker closed inside default cool-down")
	}
	if b.Open(at(DefaultBreakerOpenFor + time.Millisecond)) {
		t.Fatal("no probe after default cool-down")
	}
}

func admissionClasses() []ClassConfig {
	return []ClassConfig{
		{Name: "premium", Priority: 0, QueueLimit: 4, MaxWait: 2 * time.Second},
		{Name: "batch", Priority: 2, QueueLimit: 2, MaxWait: 10 * time.Second},
	}
}

func TestAdmissionGrantAndQueueFull(t *testing.T) {
	a := NewAdmission(admissionClasses(), 1)
	a.SetReady(at(0), "d1", true)

	granted := 0
	a.Submit(at(0), "premium", "d1", func() { granted++ }, func(ShedReason) { t.Fatal("shed") })
	if granted != 1 {
		t.Fatalf("ready resource did not grant immediately: %d", granted)
	}
	// Slot cap 1: the next three queue, the two beyond batch's limit shed.
	var sheds []ShedReason
	a.Submit(at(0), "batch", "d1", func() { t.Fatal("granted past cap") }, func(r ShedReason) { sheds = append(sheds, r) })
	a.Submit(at(0), "batch", "d1", func() { t.Fatal("granted past cap") }, func(r ShedReason) { sheds = append(sheds, r) })
	a.Submit(at(0), "batch", "d1", func() {}, func(r ShedReason) { sheds = append(sheds, r) })
	if len(sheds) != 1 || sheds[0] != ShedQueueFull {
		t.Fatalf("sheds = %v, want one queue-full", sheds)
	}
	if a.QueueDepth() != 2 {
		t.Fatalf("depth = %d, want 2", a.QueueDepth())
	}
	if cs := a.byName["batch"]; cs.shedFull != 1 {
		t.Fatalf("batch shedFull = %d, want 1", cs.shedFull)
	}
}

func TestAdmissionPriorityAndRelease(t *testing.T) {
	a := NewAdmission(admissionClasses(), 1)
	a.SetReady(at(0), "d1", true)
	var order []string
	grant := func(name string) func() { return func() { order = append(order, name) } }
	noShed := func(ShedReason) { t.Fatal("shed") }

	a.Submit(at(0), "batch", "d1", grant("b1"), noShed) // takes the slot
	a.Submit(at(0), "batch", "d1", grant("b2"), noShed)
	a.Submit(at(0), "premium", "d1", grant("p1"), noShed)

	a.Release(at(time.Second), "d1") // premium must preempt the older batch request
	a.Release(at(time.Second), "d1")
	want := []string{"b1", "p1", "b2"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("grant order = %v, want %v", order, want)
	}
}

func TestAdmissionDeadlineShed(t *testing.T) {
	a := NewAdmission(admissionClasses(), 1)
	a.SetReady(at(0), "d1", true)
	a.Submit(at(0), "premium", "d1", func() {}, func(ShedReason) { t.Fatal("shed the slot holder") })

	var shed ShedReason
	a.Submit(at(0), "premium", "d1", func() { t.Fatal("granted after deadline") }, func(r ShedReason) { shed = r })
	a.Poll(at(3 * time.Second)) // premium MaxWait is 2s
	if shed != ShedDeadline {
		t.Fatalf("shed = %q, want deadline", shed)
	}
	if cs := a.byName["premium"]; cs.shedLate != 1 {
		t.Fatalf("premium shedLate = %d, want 1", cs.shedLate)
	}
}

func TestAdmissionColdResourceDoesNotBlockClass(t *testing.T) {
	a := NewAdmission(admissionClasses(), 1)
	a.SetReady(at(0), "warm", true) // "cold" stays not-ready
	var order []string
	a.Submit(at(0), "premium", "cold", func() { order = append(order, "cold") }, func(ShedReason) {})
	a.Submit(at(0), "premium", "warm", func() { order = append(order, "warm") }, func(ShedReason) {})
	if len(order) != 1 || order[0] != "warm" {
		t.Fatalf("order = %v, want the warm request granted past the cold one", order)
	}
	// The cold request is granted as soon as its disk comes up.
	a.SetReady(at(time.Second), "cold", true)
	if len(order) != 2 || order[1] != "cold" {
		t.Fatalf("order = %v, want cold granted after SetReady", order)
	}
}

func TestAdmissionGrantCallbackMayReenter(t *testing.T) {
	a := NewAdmission(admissionClasses(), 1)
	a.SetReady(at(0), "d1", true)
	got := 0
	// The grant callback synchronously releases and resubmits; the
	// controller must survive the re-entry and keep granting.
	var serve func()
	serve = func() {
		got++
		if got < 5 {
			a.Release(at(0), "d1")
			a.Submit(at(0), "premium", "d1", serve, func(ShedReason) {})
		}
	}
	a.Submit(at(0), "premium", "d1", serve, func(ShedReason) {})
	if got != 5 {
		t.Fatalf("re-entrant grants = %d, want 5", got)
	}
}

func TestAdmissionDemand(t *testing.T) {
	a := NewAdmission(admissionClasses(), 1)
	a.SetReady(at(0), "d1", true)
	a.Submit(at(0), "premium", "d1", func() {}, func(ShedReason) {}) // in flight
	a.Submit(at(0), "premium", "d2", func() {}, func(ShedReason) {}) // queued (cold)
	a.Submit(at(0), "batch", "d2", func() {}, func(ShedReason) {})   // queued (cold)
	if d1, d2, d3 := a.Demand("d1"), a.Demand("d2"), a.Demand("d3"); d1 != 1 || d2 != 2 || d3 != 0 {
		t.Fatalf("demand d1:%d d2:%d d3:%d, want d1:1 d2:2 d3:0", d1, d2, d3)
	}
	a.Release(at(0), "d1")
	if d := a.Demand("d1"); d != 0 {
		t.Fatalf("demand d1:%d after its release, want 0", d)
	}
}

// counter records every outcome Admission hands one submitter; onGrant,
// when set, runs inside the grant (a re-entrant submitter). grant and shed
// are its callbacks, bound once as the simulator's records bind theirs.
type counter struct {
	name    string
	grants  int
	sheds   []ShedReason
	onGrant func()
	grant   func()
	shed    func(ShedReason)
}

func newCounter(name string) *counter {
	c := &counter{name: name}
	c.grant, c.shed = c.granted, c.refused
	return c
}

func (c *counter) granted() {
	c.grants++
	if c.onGrant != nil {
		c.onGrant()
	}
}

func (c *counter) refused(r ShedReason) { c.sheds = append(c.sheds, r) }

// TestAdmissionReentrantPassesFireOnce holds Admission to exactly one
// outcome per request when a grant re-enters and dispatch walks again: the
// second pass must fire only what it took out itself. The re-entrant Submit
// reuses the granted request's record, so a pass that re-fired the first
// pass's list would hand the new submitter a second outcome.
func TestAdmissionReentrantPassesFireOnce(t *testing.T) {
	a := NewAdmission(admissionClasses(), 1)
	a.SetReady(at(0), "d1", true)
	late, next, first := newCounter("late"), newCounter("next"), newCounter("first")
	first.onGrant = func() {
		a.Release(at(3*time.Second), "d1")
		a.Submit(at(3*time.Second), "premium", "d1", next.grant, next.shed)
	}
	a.Submit(at(0), "premium", "cold", late.grant, late.shed) // "cold" never comes up: shed at its deadline
	a.Submit(at(3*time.Second), "premium", "d1", first.grant, first.shed)
	want := map[*counter][2]int{first: {1, 0}, next: {1, 0}, late: {0, 1}}
	for c, n := range want {
		if c.grants != n[0] || len(c.sheds) != n[1] {
			t.Errorf("%s: %d grants, sheds %v; want %d grant(s) and %d shed(s)", c.name, c.grants, c.sheds, n[0], n[1])
		}
	}
	if d := a.Demand("d1"); d != 1 {
		t.Errorf("d1 demand %d, want 1 (next in flight)", d)
	}
	if q := a.QueueDepth(); q != 0 {
		t.Errorf("queue depth %d, want 0", q)
	}
}

// TestAdmissionWarmSubmitAllocs: once its free list is warm, a submit,
// grant and release cycle allocates nothing when the caller's callbacks
// are bound once.
func TestAdmissionWarmSubmitAllocs(t *testing.T) {
	a := NewAdmission(admissionClasses(), 1)
	a.SetReady(at(0), "d1", true)
	c := newCounter("c")
	cycle := func() {
		a.Submit(at(0), "premium", "d1", c.grant, c.shed) // takes the slot
		a.Submit(at(0), "batch", "d1", c.grant, c.shed)   // queues behind it
		a.Release(at(0), "d1")
		a.Release(at(0), "d1")
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a warm submit/grant/release cycle allocates %v objects, want 0", n)
	}
	// AllocsPerRun adds one warm-up run of its own.
	if want := 2 * 102; c.grants != want || len(c.sheds) != 0 {
		t.Fatalf("%d grants and %d sheds, want %d and 0", c.grants, len(c.sheds), want)
	}
}

func TestAutoScalerPlan(t *testing.T) {
	as := NewAutoScaler(AutoScalerConfig{
		MinSpinning: 2, MaxSpinning: 4, MaxSpinningUp: 1, IdleAfter: time.Minute,
	})
	disks := []DiskState{
		{Name: "d1", Spinning: true, Demand: 3},
		{Name: "d2", Spinning: true, Demand: 0},
		{Name: "d3", Demand: 5}, // cold, heavy backlog
		{Name: "d4", Demand: 1}, // cold, light backlog
		{Name: "d5", Demand: 0}, // cold, no demand
	}
	up, down := as.Plan(at(0), disks)
	if len(up) != 1 || up[0] != "d3" {
		t.Fatalf("spinUp = %v, want [d3] (inrush cap 1, heaviest first)", up)
	}
	if len(down) != 0 {
		t.Fatalf("spinDown = %v, want none (no candidates)", down)
	}

	// With d3 now spinning-up, the inrush cap blocks d4.
	disks[2] = DiskState{Name: "d3", Spinning: true, SpinningUp: true, Demand: 5}
	up, _ = as.Plan(at(0), disks)
	if len(up) != 0 {
		t.Fatalf("spinUp = %v, want none while d3 is in its spin-up transient", up)
	}

	// d3 finished and drained; as a candidate idle past the window it spins
	// back down, but d2 (not a candidate) stays up.
	disks[2] = DiskState{Name: "d3", Spinning: true, ScaleDownCandidate: true, IdleSince: at(0)}
	disks[3] = DiskState{Name: "d4", Demand: 0}
	up, down = as.Plan(at(2*time.Minute), disks)
	if len(up) != 0 {
		t.Fatalf("spinUp = %v, want none", up)
	}
	if len(down) != 1 || down[0] != "d3" {
		t.Fatalf("spinDown = %v, want [d3]", down)
	}

	// Power budget: with 4 spinning and demand on a cold disk, no spin-up.
	budget := []DiskState{
		{Name: "d1", Spinning: true}, {Name: "d2", Spinning: true},
		{Name: "d3", Spinning: true}, {Name: "d4", Spinning: true},
		{Name: "d5", Demand: 9},
	}
	up, _ = as.Plan(at(0), budget)
	if len(up) != 0 {
		t.Fatalf("spinUp = %v, want none at the power budget", up)
	}
}

func TestAutoScalerFloor(t *testing.T) {
	as := NewAutoScaler(AutoScalerConfig{MinSpinning: 2, MaxSpinning: 4, MaxSpinningUp: 2})
	disks := []DiskState{
		{Name: "d1", Spinning: true, ScaleDownCandidate: true, IdleSince: at(0)},
		{Name: "d2", Spinning: true, ScaleDownCandidate: true, IdleSince: at(0)},
	}
	_, down := as.Plan(at(time.Hour), disks)
	if len(down) != 0 {
		t.Fatalf("spinDown = %v, want none at the floor", down)
	}
}
