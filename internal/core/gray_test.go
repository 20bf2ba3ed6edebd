package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"ustore/internal/disk"
	"ustore/internal/policy"
)

// grayBoot boots a cluster with the gray-failure detector on and fast
// quarantine timing for tests.
func grayBoot(t *testing.T, mutate ...func(*Config)) *Cluster {
	t.Helper()
	return boot(t, append([]func(*Config){func(cfg *Config) {
		cfg.HealthQuarantine = true
	}}, mutate...)...)
}

// allocMountOn allocates size bytes under service, mounts it on cl, and
// returns the allocation.
func allocMountOn(t *testing.T, c *Cluster, cl *ClientLib, size int64) AllocateReply {
	t.Helper()
	var rep AllocateReply
	var err error = errors.New("pending")
	cl.Allocate(size, func(r AllocateReply, e error) { rep, err = r, e })
	c.Settle(3 * time.Second)
	if err != nil {
		t.Fatalf("allocate for %s: %v", cl.service, err)
	}
	var merr error = errors.New("pending")
	cl.Mount(rep.Space, func(e error) { merr = e })
	c.Settle(3 * time.Second)
	if merr != nil {
		t.Fatalf("mount %s: %v", rep.Space, merr)
	}
	return rep
}

// pumpIO starts a steady small-read loop on a mounted space and returns a
// stop function. Each disk needs a trickle of IO for its health EWMAs to
// mean anything.
func pumpIO(c *Cluster, cl *ClientLib, space SpaceID, every time.Duration) func() {
	stopped := false
	var loop func()
	loop = func() {
		if stopped {
			return
		}
		cl.Read(space, 0, 4096, func([]byte, error) {})
		c.Sched.After(every, loop)
	}
	c.Sched.After(every, loop)
	return func() { stopped = true }
}

// TestGrayDiskQuarantineAndRelease drives the full detect-quarantine-release
// arc: a fail-slow disk's tail latency diverges from the cohort, the master
// quarantines it (new allocations avoid it), and after recovery it is
// released through probation.
func TestGrayDiskQuarantineAndRelease(t *testing.T) {
	c := grayBoot(t)
	m := c.ActiveMaster()

	// Four services on four distinct disks give the detector a cohort.
	var reps []AllocateReply
	var stops []func()
	for i := 0; i < 4; i++ {
		cl := c.Client(fmt.Sprintf("cold%d", i), fmt.Sprintf("cold-svc%d", i))
		rep := allocMountOn(t, c, cl, 1<<30)
		reps = append(reps, rep)
		stops = append(stops, pumpIO(c, cl, rep.Space, 150*time.Millisecond))
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	disks := map[string]bool{}
	for _, rep := range reps {
		disks[rep.DiskID] = true
	}
	if len(disks) != 4 {
		t.Fatalf("allocations landed on %d disks, want 4", len(disks))
	}
	c.Settle(5 * time.Second) // warm up every disk's health EWMAs

	var quarantined, released []string
	m.OnDiskQuarantined = func(id, host string) { quarantined = append(quarantined, id) }
	m.OnDiskReleased = func(id string) { released = append(released, id) }

	gray := reps[0].DiskID
	if err := c.DegradeDisk(gray, 0.6); err != nil {
		t.Fatal(err)
	}
	c.Settle(15 * time.Second)

	if got := m.DiskHealthState(gray); got != HealthQuarantined {
		t.Fatalf("gray disk state = %s (tail %v), want quarantined", got, m.health.disks[gray].last.TailEWMA)
	}
	if len(quarantined) != 1 || quarantined[0] != gray {
		t.Fatalf("OnDiskQuarantined fired for %v, want [%s]", quarantined, gray)
	}
	for id := range m.health.disks {
		if m.health.excluded(id) != (id == gray) {
			t.Fatalf("disk %s excluded = %v, want only %s", id, m.health.excluded(id), gray)
		}
	}
	for _, rep := range reps[1:] {
		if m.DiskHealthState(rep.DiskID) != HealthGood {
			t.Fatalf("healthy disk %s scored %s", rep.DiskID, m.DiskHealthState(rep.DiskID))
		}
	}

	// New allocations must avoid the quarantined disk — even for the
	// service that owns it (affinity rule 1 would otherwise pick it). The
	// validator is asked first: an allocator that stops skipping quarantined
	// disks must fail here, naming the invariant, which is what the
	// quarantine-blind entry of mutants_test.go requires.
	owner := c.Client("cold0", "cold-svc0")
	var rep2 AllocateReply
	var aerr error = errors.New("pending")
	owner.Allocate(1<<30, func(r AllocateReply, e error) { rep2, aerr = r, e })
	c.Settle(3 * time.Second)
	if aerr != nil {
		t.Fatalf("allocate during quarantine: %v", aerr)
	}
	if err := m.ValidateQuarantine(); err != nil {
		t.Fatalf("quarantine invariant: %v", err)
	}
	if rep2.DiskID == gray {
		t.Fatalf("allocation landed on quarantined disk %s", gray)
	}

	// Recovery: clean scores walk the disk through probation to release.
	if err := c.RecoverDisk(gray); err != nil {
		t.Fatal(err)
	}
	c.Settle(30 * time.Second)
	if got := m.DiskHealthState(gray); got != HealthGood {
		t.Fatalf("recovered disk state = %s, want healthy", got)
	}
	if len(released) != 1 || released[0] != gray {
		t.Fatalf("OnDiskReleased fired for %v, want [%s]", released, gray)
	}
}

// seqHedgedReads performs n sequential hedged reads and returns the sorted
// latencies.
func seqHedgedReads(t *testing.T, c *Cluster, cl *ClientLib, space SpaceID, n int, want []byte) []time.Duration {
	t.Helper()
	var lats []time.Duration
	fail := ""
	done := 0
	var issue func()
	issue = func() {
		if done >= n {
			return
		}
		start := c.Sched.Now()
		cl.ReadHedged(space, 0, len(want), func(data []byte, err error) {
			if err != nil && fail == "" {
				fail = err.Error()
			} else if err == nil && !bytes.Equal(data, want) && fail == "" {
				fail = fmt.Sprintf("read %d returned wrong bytes", done)
			}
			lats = append(lats, c.Sched.Now()-start)
			done++
			issue()
		})
	}
	issue()
	c.Settle(time.Duration(n) * 2 * time.Second)
	if fail != "" {
		t.Fatal(fail)
	}
	if len(lats) != n {
		t.Fatalf("completed %d/%d hedged reads", len(lats), n)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats
}

// TestHedgedReadCutsGrayTail measures the mitigation stack end to end: a
// prober mounts a mirrored pair living on two different disks; when one
// disk goes gray, hedged reads keep the tail bounded by the healthy
// mirror's latency while plain reads eat the full degraded service time.
func TestHedgedReadCutsGrayTail(t *testing.T) {
	c := boot(t)
	payload := bytes.Repeat([]byte("ustore-mirror-block"), 200)

	// Two writer services land the two copies on two different disks.
	wa := c.Client("mir-a", "mirror-a")
	wb := c.Client("mir-b", "mirror-b")
	repA := allocMountOn(t, c, wa, 1<<30)
	repB := allocMountOn(t, c, wb, 1<<30)
	if repA.DiskID == repB.DiskID {
		t.Fatalf("mirror copies landed on one disk %s", repA.DiskID)
	}
	for _, w := range []struct {
		cl *ClientLib
		sp SpaceID
	}{{wa, repA.Space}, {wb, repB.Space}} {
		var werr error = errors.New("pending")
		w.cl.Write(w.sp, 0, payload, func(e error) { werr = e })
		c.Settle(3 * time.Second)
		if werr != nil {
			t.Fatalf("mirror write: %v", werr)
		}
	}

	// The prober mounts both copies and hedges between them.
	prober := c.Client("prober", "probe-svc")
	mit := prober.EnableMitigation()
	for _, sp := range []SpaceID{repA.Space, repB.Space} {
		var merr error = errors.New("pending")
		prober.Mount(sp, func(e error) { merr = e })
		c.Settle(3 * time.Second)
		if merr != nil {
			t.Fatalf("prober mount %s: %v", sp, merr)
		}
	}
	mit.SetMirror(repA.Space, repB.Space)

	// Warm the latency models, then take the healthy baseline.
	p99 := func(lats []time.Duration) time.Duration { return lats[len(lats)*99/100] }
	seqHedgedReads(t, c, prober, repA.Space, 16, payload)
	healthy := seqHedgedReads(t, c, prober, repA.Space, 1000, payload)
	healthyP99 := p99(healthy)
	if at := mit.adaptiveTimeout(prober.mounts[repA.Space].host, string(repA.Space)); at <= 0 || at >= prober.ini.Timeout {
		t.Fatalf("adaptive timeout %v not inside (0, %v)", at, prober.ini.Timeout)
	}

	// Primary copy's disk goes gray.
	if err := c.DegradeDisk(repA.DiskID, 0.6); err != nil {
		t.Fatal(err)
	}
	mitigated := seqHedgedReads(t, c, prober, repA.Space, 1000, payload)
	mitigatedP99 := p99(mitigated)
	if mit.Hedges == 0 || mit.HedgeWins == 0 {
		t.Fatalf("no hedges fired/won (hedges=%d wins=%d)", mit.Hedges, mit.HedgeWins)
	}

	// Same degraded disk without hedging: plain reads pay full freight.
	plain := func(n int) []time.Duration {
		var lats []time.Duration
		done := 0
		var issue func()
		issue = func() {
			if done >= n {
				return
			}
			start := c.Sched.Now()
			wa.Read(repA.Space, 0, len(payload), func(_ []byte, err error) {
				if err != nil {
					t.Errorf("plain read: %v", err)
				}
				lats = append(lats, c.Sched.Now()-start)
				done++
				issue()
			})
		}
		issue()
		c.Settle(time.Duration(n) * 2 * time.Second)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats
	}
	unmitigated := plain(50)
	unmitigatedP99 := unmitigated[len(unmitigated)-1]

	if mitigatedP99 > 2*healthyP99 {
		t.Fatalf("mitigated p99 %v > 2x healthy p99 %v", mitigatedP99, healthyP99)
	}
	if unmitigatedP99 < 3*mitigatedP99 {
		t.Fatalf("plain p99 %v not >> mitigated p99 %v: degrade too weak to matter", unmitigatedP99, mitigatedP99)
	}
	c.Settle(time.Minute) // the losing legs of the last hedged reads land
	recordsHome(t, map[string]interface{ Counts() (int, int) }{
		"hedged reads": &mit.reads, "writer IOs": &wa.ios,
	})
}

// TestBreakerOpensAndHalfOpenProbes unit-tests the circuit breaker's state
// machine through its observe/allow surface.
func TestBreakerOpensAndHalfOpenProbes(t *testing.T) {
	c := boot(t)
	cl := c.Client("bk", "breaker-svc")
	mit := cl.EnableMitigation()
	host, vol := "h1", "unit0/disk00/sp1"

	if mit.breakerOpen(host, vol) {
		t.Fatal("breaker open with no history")
	}
	for i := 0; i < policy.DefaultBreakerFails; i++ {
		mit.observe(host, vol, time.Second, errors.New("timeout"))
	}
	if !mit.breakerOpen(host, vol) {
		t.Fatal("breaker not open after consecutive failures")
	}
	if mit.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d", mit.BreakerOpens)
	}

	// Cool-down elapses: exactly one half-open probe slips through.
	c.Settle(policy.DefaultBreakerOpenFor + time.Second)
	if mit.breakerOpen(host, vol) {
		t.Fatal("half-open probe not admitted after cool-down")
	}
	if !mit.breakerOpen(host, vol) {
		t.Fatal("second request admitted while probe in flight")
	}

	// Probe fails: breaker re-opens for another cool-down.
	mit.observe(host, vol, time.Second, errors.New("timeout"))
	if !mit.breakerOpen(host, vol) {
		t.Fatal("breaker closed after failed probe")
	}

	// Next probe succeeds: breaker closes fully.
	c.Settle(policy.DefaultBreakerOpenFor + time.Second)
	if mit.breakerOpen(host, vol) {
		t.Fatal("probe not admitted after second cool-down")
	}
	mit.observe(host, vol, 10*time.Millisecond, nil)
	if mit.breakerOpen(host, vol) {
		t.Fatal("breaker still open after successful probe")
	}
}

// TestSlowSuccessTripsBreaker is the fail-slow half of the breaker: a
// target that keeps ANSWERING, but 20x slower than its model, must open
// the breaker even though no request ever errors.
func TestSlowSuccessTripsBreaker(t *testing.T) {
	c := boot(t)
	cl := c.Client("bk2", "breaker-svc2")
	mit := cl.EnableMitigation()
	host, vol := "h1", "unit0/disk00/sp9"
	for i := 0; i < mitMinSamples; i++ {
		mit.observe(host, vol, 10*time.Millisecond, nil)
	}
	for i := 0; i < policy.DefaultBreakerFails; i++ {
		if mit.breakerOpen(host, vol) {
			t.Fatalf("breaker open after %d slow successes", i)
		}
		mit.observe(host, vol, time.Second, nil) // success, but way past the gate
	}
	if !mit.breakerOpen(host, vol) {
		t.Fatal("breaker not open after sustained slow successes")
	}
	// The slow samples must not have redefined "normal".
	if tl := mit.latency(target{host, vol}); tl.ewma > 20*time.Millisecond {
		t.Fatalf("slow successes polluted the latency model (ewma %v)", tl.ewma)
	}
}

// TestScorePassAllocs: a warm detection pass, the scan for dead hosts and
// the gray scoring of every online disk, allocates nothing: the host list,
// the disk IDs and the tails it sorts live in buffers on the Master.
func TestScorePassAllocs(t *testing.T) {
	r := newMasterRig(t)
	m := r.active()
	m.cfg.HealthQuarantine = true
	for h := 0; h < 4; h++ {
		var disks []DiskInfo
		for d := 0; d < 4; d++ {
			tail := time.Duration(30-4*d-h) * time.Millisecond
			disks = append(disks, DiskInfo{ID: fmt.Sprintf("disk%d%d", h, d), State: DiskOnline,
				Health: disk.HealthStats{TailEWMA: tail, IOs: healthMinIOs}})
		}
		r.beat(t, fmt.Sprintf("h%d", h+1), 1, disks...)
	}
	for i := 0; i < 4; i++ {
		m.detectPass()
	}
	if n := testing.AllocsPerRun(100, m.detectPass); n != 0 {
		t.Fatalf("a warm detection pass allocates %v objects, want 0", n)
	}
	if len(m.scanHosts) != 4 || len(m.scoreIDs) != 16 || len(m.scoreTails) != 16 {
		t.Fatalf("the pass scanned %d hosts and scored %d disks with %d tails, want 4, 16 and 16",
			len(m.scanHosts), len(m.scoreIDs), len(m.scoreTails))
	}
	if !sort.StringsAreSorted(m.scoreIDs) || m.scoreTails[8] != 23*time.Millisecond {
		t.Fatalf("scored disks %v with tails %v, want sorted IDs and a 23ms median", m.scoreIDs, m.scoreTails)
	}
}
