package core

import (
	"errors"
	"sort"
	"testing"
	"time"

	"ustore/internal/policy"
)

// protClass is the one admission class the protection tests use.
const protClass = "premium"

// protectedCluster boots the default cluster with the protection stack
// armed (master throttling) and settles past the boot spin-up.
func protectedCluster(t *testing.T) *Cluster {
	t.Helper()
	c := boot(t, func(cfg *Config) {
		cfg.Protection = &ProtectionConfig{Classes: []policy.ClassConfig{
			{Name: protClass, Priority: 0, QueueLimit: 64, MaxWait: time.Minute},
		}}
	})
	c.Settle(30 * time.Second)
	return c
}

// readyDisks returns the disks the protector can grant on, sorted; a
// test needs at least two.
func readyDisks(t *testing.T, c *Cluster) []string {
	t.Helper()
	var ids []string
	for id, d := range c.Disks {
		if diskReady(d.State()) {
			ids = append(ids, id)
		}
	}
	if len(ids) < 2 {
		t.Fatalf("%d spinning disks, want at least 2", len(ids))
	}
	sort.Strings(ids)
	return ids
}

// outcome keeps the last outcome Admit gave it; grant and shed are its
// callbacks, bound once.
type outcome struct {
	got   policy.ShedReason
	grant func()
	shed  func(policy.ShedReason)
}

func newOutcome() *outcome {
	o := &outcome{}
	o.grant = func() { o.got = "granted" }
	o.shed = func(r policy.ShedReason) { o.got = r }
	return o
}

// admit runs one Admit and reports its synchronous outcome: "granted", a
// reject reason, or "queued".
func admit(p *Protector, tenant, diskID string) policy.ShedReason {
	o := newOutcome()
	o.got = "queued"
	p.Admit(protClass, tenant, diskID, o.grant, o.shed)
	return o.got
}

// TestProtectorBreakerOpensAndProbes drives the per-disk breaker: three
// failed requests open it, the next arrival is refused and counted as a
// breaker trip, and after the cool-down exactly one probe is let through,
// whose success closes it again.
func TestProtectorBreakerOpensAndProbes(t *testing.T) {
	c := protectedCluster(t)
	p := NewProtector(c, *c.Cfg.Protection)
	defer p.Stop()
	disks := readyDisks(t, c)
	id := disks[0]
	failed := errors.New("io error")
	for i := 0; i < policy.DefaultBreakerFails; i++ {
		if got := admit(p, "t1", id); got != "granted" {
			t.Fatalf("request %d before the breaker opened: %s", i, got)
		}
		p.Done(id, failed)
	}
	if p.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d after %d failures, want 1", p.BreakerOpens, policy.DefaultBreakerFails)
	}
	if got := admit(p, "t1", id); got != RejectBreaker {
		t.Fatalf("request at an open breaker: %s, want %s", got, RejectBreaker)
	}
	if n := p.BreakerTrips[protClass]; n != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", n)
	}
	if got := admit(p, "t2", disks[1]); got != "granted" {
		t.Fatalf("request to a healthy disk while another's breaker is open: %s", got)
	}

	c.Settle(policy.DefaultBreakerOpenFor)
	if got := admit(p, "t1", id); got != "granted" {
		t.Fatalf("half-open probe after the cool-down: %s, want granted", got)
	}
	if got := admit(p, "t1", id); got != RejectBreaker {
		t.Fatalf("second request during the probe: %s, want %s", got, RejectBreaker)
	}
	p.Done(id, nil)
	if got := admit(p, "t1", id); got != "granted" {
		t.Fatalf("request after a successful probe: %s, want granted", got)
	}
	recordsHome(t, map[string]interface{ Counts() (int, int) }{"admissions": &p.admissions})
}

// TestProtectorThrottlesTenantPastBurst drives one tenant's token bucket
// past its burst within a single instant: the extra request is refused
// with RejectThrottled and counted, while another tenant still gets in.
func TestProtectorThrottlesTenantPastBurst(t *testing.T) {
	c := protectedCluster(t)
	p := NewProtector(c, *c.Cfg.Protection)
	defer p.Stop()
	id := readyDisks(t, c)[0]
	for i := 0; i < tenantBurst; i++ {
		if got := admit(p, "noisy", id); got == RejectThrottled {
			t.Fatalf("request %d of a %d burst throttled", i, tenantBurst)
		}
	}
	if got := admit(p, "noisy", id); got != RejectThrottled {
		t.Fatalf("request past the burst: %s, want %s", got, RejectThrottled)
	}
	if n := p.Throttled[protClass]; n != 1 {
		t.Fatalf("Throttled = %d, want 1", n)
	}
	if got := admit(p, "quiet", id); got == RejectThrottled {
		t.Fatal("a second tenant was throttled by the first one's bucket")
	}
}

// TestMasterThrottlesMetadataPastBurst fires more Allocates, then more
// Lookups, than the master's per-caller burst in one instant: the excess
// fails with ErrThrottled across the RPC boundary. A caller whose bucket
// is empty still gets its heartbeats through.
func TestMasterThrottlesMetadataPastBurst(t *testing.T) {
	c := protectedCluster(t)
	const calls = masterBurst + 5

	cl := c.Client("thr-alloc", "thrsvc")
	var spaces []SpaceID
	ok, throttled := 0, 0
	for i := 0; i < calls; i++ {
		cl.Allocate(1<<20, func(r AllocateReply, err error) {
			switch {
			case err == nil:
				ok++
				spaces = append(spaces, r.Space)
			case errors.Is(err, ErrThrottled):
				throttled++
			default:
				t.Errorf("allocate: %v", err)
			}
		})
	}
	c.Settle(5 * time.Second)
	if ok != masterBurst || throttled != calls-masterBurst {
		t.Fatalf("%d allocates in one instant: %d ok, %d throttled; want %d and %d",
			calls, ok, throttled, masterBurst, calls-masterBurst)
	}

	lk := c.Client("thr-lookup", "thrsvc")
	ok, throttled = 0, 0
	for i := 0; i < calls; i++ {
		lk.Lookup(spaces[0], func(_ LookupReply, err error) {
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrThrottled):
				throttled++
			default:
				t.Errorf("lookup: %v", err)
			}
		})
	}
	c.Settle(5 * time.Second)
	if ok != masterBurst || throttled != calls-masterBurst {
		t.Fatalf("%d lookups in one instant: %d ok, %d throttled; want %d and %d",
			calls, ok, throttled, masterBurst, calls-masterBurst)
	}

	m := c.ActiveMaster()
	const caller = "drained-caller"
	for i := 0; i <= masterBurst; i++ {
		m.throttled(caller)
	}
	if _, err := m.handleLookup(caller, LookupArgs{Space: spaces[0]}); !errors.Is(err, ErrThrottled) {
		t.Fatalf("lookup from a drained caller: %v, want ErrThrottled", err)
	}
	if _, err := m.handleHeartbeat(caller, HeartbeatArgs{Host: "hb-probe"}); err != nil {
		t.Fatalf("heartbeat from a drained caller: %v", err)
	}
}

// TestProtectorTickAllocs pins a warm protector tick at nothing: the disk
// IDs are sorted once, the autoscaler's input and working copies are
// reused buffers, and demand is read per disk rather than built as a map.
// The disk set is the booted cluster's, with no backlog, so the plan is
// empty and no disk changes state.
func TestProtectorTickAllocs(t *testing.T) {
	c := protectedCluster(t)
	p := NewProtector(c, *c.Cfg.Protection)
	defer p.Stop()
	p.tick()
	if n := testing.AllocsPerRun(100, p.tick); n != 0 {
		t.Fatalf("a warm protector tick allocates %v objects, want 0", n)
	}
	if p.SpinUps != 0 || p.SpinDowns != 0 {
		t.Fatalf("%d spin-ups and %d spin-downs: the plan was not empty", p.SpinUps, p.SpinDowns)
	}
}

// TestProtectorAdmitAllocs pins a warm Admit → grant → Done cycle at
// nothing: the caller's callbacks are handed through a pooled admission
// record and a pooled admission-queue request, and neither builds a
// closure. Four
// tenants take turns so none runs past its token bucket's burst.
func TestProtectorAdmitAllocs(t *testing.T) {
	c := protectedCluster(t)
	p := NewProtector(c, *c.Cfg.Protection)
	defer p.Stop()
	id := readyDisks(t, c)[0]
	tenants := []string{"t0", "t1", "t2", "t3"}
	o := newOutcome()
	i := 0
	cycle := func() {
		o.got = "queued"
		p.Admit(protClass, tenants[i%len(tenants)], id, o.grant, o.shed)
		i++
		if o.got != "granted" {
			t.Fatalf("admit %d: %s, want granted", i, o.got)
		}
		p.Done(id, nil)
	}
	for range tenants { // one bucket per tenant, and the free lists
		cycle()
	}
	if n := testing.AllocsPerRun(40, cycle); n != 0 {
		t.Fatalf("a warm Admit → grant → Done allocates %v objects, want 0", n)
	}
}
