package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"ustore/internal/block"
	"ustore/internal/core"
	"ustore/internal/disk"
	"ustore/internal/model"
	"ustore/internal/obs"
	"ustore/internal/paxos"
	"ustore/internal/simtime"
	"ustore/internal/workload"
)

// BlockSize is the workload's write/verify granularity — one checksum block.
const BlockSize = block.ChecksumBlockSize

// streakLimit is how many consecutive all-error audits a replica may suffer
// before the harness declares the remount/failover path non-convergent. At
// the default 12h audit cadence this allows any legitimate repair window
// (host MTTR, disk replacement) to pass, but not a stuck client.
const streakLimit = 4

// Stats summarizes a chaos run.
type Stats struct {
	FaultsApplied       int
	WritesAcked         int
	WritesFailed        int
	AuditReads          int
	CorruptionsDetected int // checksum-layer detections during audits
	Repairs             int // blocks rewritten from the replica's good copy
	ScrubScanned        int
	ScrubBad            int
	ScrubRepaired       int
	ScrubUnrepaired     int
	Remounts            uint64
	// ModelOps and ModelPartitions report the end-of-run linearizability
	// check: how many completed metadata operations were verified against
	// the internal/model reference model, across how many per-space and
	// per-disk partitions. Check failures land in Report.Violations.
	ModelOps        int
	ModelPartitions int
	// Gray-failure run outcomes (zero unless Options.GrayFaults or
	// Options.Mitigation is set). Probe latencies are split by whether any
	// gray fault window was open when the read was issued, so mitigated and
	// unmitigated runs of one seed can compare tails directly.
	GrayQuarantines  int // disks the master quarantined
	GrayMigrations   int // replicas proactively migrated off quarantined disks
	ProbeReads       int
	ProbeErrors      int
	ProbeHealthyP99  time.Duration
	ProbeDegradedP99 time.Duration
	Hedges           uint64
	HedgeWins        uint64
	BreakerOpens     uint64
	Redirects        uint64
	FastFails        uint64
	// ProbeBytesCompared and ProbeMemoHits are the probe check's own work:
	// the bytes it compared against a known-good copy, and the reads it
	// knew equal without a compare because they were a chunk generation it
	// had already verified (see replicaBlock.verified).
	ProbeBytesCompared int64
	ProbeMemoHits      int
}

// Report is the outcome of a chaos run.
type Report struct {
	Seed       int64
	Opts       Options
	Schedule   []Fault
	Log        []string
	Violations []string
	Stats      Stats
	// SLO is set by traffic-mode runs (Options.Tenants): the per-class SLO
	// outcome of the multi-tenant traffic engine.
	SLO *workload.SLOReport
}

// LogText renders the event log as one string (replay comparisons).
func (r *Report) LogText() string { return strings.Join(r.Log, "\n") }

// writeInvariants ends a summary block (cluster or fleet) with the verdict.
func writeInvariants(b *strings.Builder, violations []string) {
	if len(violations) == 0 {
		b.WriteString("  invariants: all held\n")
		return
	}
	fmt.Fprintf(b, "  INVARIANT VIOLATIONS (%d):\n", len(violations))
	for _, v := range violations {
		fmt.Fprintf(b, "    %s\n", v)
	}
}

// SummaryText renders the per-seed summary block ustore-chaos prints for a
// run and a campaign cell stores.
func (r *Report) SummaryText() string {
	var b strings.Builder
	if r.SLO != nil {
		b.WriteString(r.SLO.Text())
		writeInvariants(&b, r.Violations)
		return b.String()
	}
	s := r.Stats
	days := r.Opts.Duration.Hours() / 24
	fmt.Fprintf(&b, "seed %d, %.3g days: %d faults applied\n", r.Seed, days, s.FaultsApplied)
	fmt.Fprintf(&b, "  writes   %d acked, %d failed; %d remounts\n", s.WritesAcked, s.WritesFailed, s.Remounts)
	fmt.Fprintf(&b, "  audits   %d reads, %d checksum detections, %d repairs\n", s.AuditReads, s.CorruptionsDetected, s.Repairs)
	fmt.Fprintf(&b, "  scrubber %d scanned, %d bad, %d repaired, %d unrepaired\n", s.ScrubScanned, s.ScrubBad, s.ScrubRepaired, s.ScrubUnrepaired)
	fmt.Fprintf(&b, "  model    %d metadata ops checked in %d partitions\n", s.ModelOps, s.ModelPartitions)
	if r.Opts.GrayFaults || r.Opts.Mitigation {
		fmt.Fprintf(&b, "  gray     %d quarantines, %d migrations; %d probes (%d errors), p99 healthy %v / degraded %v\n",
			s.GrayQuarantines, s.GrayMigrations, s.ProbeReads, s.ProbeErrors, s.ProbeHealthyP99, s.ProbeDegradedP99)
		fmt.Fprintf(&b, "  hedging  %d hedges (%d wins), %d breaker opens, %d redirects, %d fast fails\n",
			s.Hedges, s.HedgeWins, s.BreakerOpens, s.Redirects, s.FastFails)
	}
	writeInvariants(&b, r.Violations)
	return b.String()
}

// replicaBlock tracks one block of one replica: the last acknowledged
// content and whether an unacknowledged write makes it unverifiable.
type replicaBlock struct {
	// data is the last acked content; nil = never acknowledged. It is a
	// pattern buffer, shared and immutable: the other replica's block and
	// in-flight writes may hold the same one, so it is replaced, never
	// written, and only together with a version bump.
	data      []byte
	uncertain bool // an outstanding/failed write may or may not have landed
	version   int  // bumped per write (and per media wipe) to drop stale acks
	inflight  int
	// verified is the last probe read of this copy that was the store's
	// own chunk bytes and compared equal to data. A later read that is the
	// same store's chunk at the same generation, checked at the same
	// version, holds the same bytes against the same data, so it is known
	// equal without a compare (probe.matches; DESIGN.md "Memoised probe
	// verification").
	verified chunkGen
}

// chunkGen names one state of a store chunk's bytes (disk.Store.Generation)
// and the block version they were verified at.
type chunkGen struct {
	store   *disk.Store
	gen     uint64
	version int
}

// replica is one copy of a replicated workload space.
type replica struct {
	name      string
	cl        *core.ClientLib
	space     core.SpaceID
	diskID    string
	offset    int64          // on-disk base offset of the space
	blocks    []replicaBlock // data buffers are shared and immutable (see replicaBlock)
	streak    int            // consecutive audits where every read failed
	auditing  bool
	migrating bool // a quarantine-drain migration is in flight
}

// openWindow is one registry entry: the fault that opened the window (its
// target resolved) and the trace span covering it.
type openWindow struct {
	f    Fault
	span *obs.Span
}

type harness struct {
	runLog
	opts Options
	c    *core.Cluster
	rng  *rand.Rand // workload randomness (schedule has its own stream)
	// hist records every metadata operation for the end-of-run
	// linearizability check. Owned by this harness — probe runs and sweep
	// workers each build their own, so none can pollute another's history.
	hist *model.History

	replicas []*replica
	bySpace  map[core.SpaceID]*replica

	allocSeen map[string]bool
	stats     Stats

	// open is the open-window registry: every fault window of every family
	// between its opener and its closer. The drain phase heals what is left
	// in it; quiet-point detection and probe-latency classification ask it
	// whether a net or gray family has anything open.
	open         map[windowID]openWindow
	lastNetFault simtime.Time

	// The per-pair hedged-read probers of a gray/mitigation run, their
	// probe records and their read-latency histogram.
	probers       []*core.ClientLib
	probes        simtime.FreeList[probe]
	probeHist     *obs.Histogram
	probeHealthy  []time.Duration
	probeDegraded []time.Duration

	writeSeq int
}

// stretchedConfig is the default cluster with the control loop's timers
// stretched so a 100-simulated-day run stays within a simulable event
// budget, while keeping every ratio (failure detection < MTTR < audit
// cadence) intact. Both chaos cluster shapes start from it.
func stretchedConfig(o Options, hist *model.History) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.ElectionTTL = 30 * time.Minute
	cfg.Paxos = paxos.Config{
		HeartbeatInterval:   time.Minute,
		ElectionTimeoutBase: 4 * time.Minute,
		PhaseTimeout:        2 * time.Minute,
	}
	cfg.CoordSweepInterval = 2 * time.Minute
	cfg.RPCTimeout = 2 * time.Second
	cfg.Recorder = o.Recorder
	cfg.History = hist
	return cfg
}

// leanConfig is the fault run's cluster: the stretched prototype unit.
func leanConfig(o Options, hist *model.History) core.Config {
	cfg := stretchedConfig(o, hist)
	cfg.HeartbeatInterval = 5 * time.Minute
	cfg.ScrubInterval = scrubEvery
	cfg.DisableChecksums = o.DisableChecksums
	// The detect-quarantine side of the mitigation stack lives in the
	// master; unmitigated gray runs leave it off so the same seed measures
	// the raw cost of fail-slow hardware.
	cfg.HealthQuarantine = o.Mitigation
	return cfg
}

// Run generates the seeded fault schedule and executes it. Traffic-mode
// runs (Options.Tenants) execute the tenant traffic engine instead of a
// fault schedule.
func Run(o Options) (*Report, error) {
	if o.Tenants {
		return runTraffic(o)
	}
	h, err := newHarness(o)
	if err != nil {
		return nil, err
	}
	schedule := genSchedule(o, h.hostNames(), h.diskNames(), h.leafHubNames(), h.machineNames())
	return h.execute(schedule)
}

// RunSchedule executes an explicit schedule (the minimizer's entry point).
func RunSchedule(o Options, schedule []Fault) (*Report, error) {
	h, err := newHarness(o)
	if err != nil {
		return nil, err
	}
	return h.execute(schedule)
}

func newHarness(o Options) (*harness, error) {
	if o.Duration <= 0 {
		return nil, fmt.Errorf("chaos: bad options (duration=%s)", o.Duration)
	}
	if o.Empirical != nil && o.AgeYears <= 0 {
		return nil, fmt.Errorf("chaos: bad options (empirical model needs a positive AgeYears, got %g)", o.AgeYears)
	}
	hist := model.NewHistory()
	c, err := core.NewCluster(leanConfig(o, hist))
	if err != nil {
		return nil, err
	}
	h := &harness{
		runLog:    runLog{now: c.Sched.Now, tag: "VIOLATION: "},
		opts:      o,
		c:         c,
		hist:      hist,
		rng:       rand.New(rand.NewSource(o.Seed ^ 0x5deece66d)),
		bySpace:   make(map[core.SpaceID]*replica),
		allocSeen: make(map[string]bool),
		open:      make(map[windowID]openWindow),
	}
	if o.Empirical != nil {
		// Arm the media-level URE model: every disk read then surfaces
		// silently corrupted sectors at the model's measured rate,
		// accelerated by the same factor that compresses media age into the
		// run window (a 5-year bathtub in a 2-day run reads ~900x more
		// "age" per sector). The checksum layer and scrubber are what turn
		// these into detections instead of corruption escapes.
		rate := empiricalURERate(o)
		for _, d := range c.Disks {
			d.SetURERate(rate)
		}
	}
	if o.Mitigation {
		// Quarantine's proactive-migration side: when the master fences a
		// gray disk, the harness drains the workload replicas off it (the
		// role a replica/EC re-placement plays in a real deployment).
		for _, m := range c.Masters {
			m.OnDiskQuarantined = func(diskID, host string) { h.onQuarantine(diskID, host) }
			m.OnDiskReleased = func(diskID string) { h.logf("quarantine released: disk %s", diskID) }
		}
	}
	// Boot: rolling spin-up, USB enumeration, paxos + coord + master
	// election all need to converge before the workload starts.
	c.Settle(30 * time.Minute)
	if c.ActiveMaster() == nil {
		return nil, fmt.Errorf("chaos: no active master after boot settle")
	}
	if err := h.setupWorkload(); err != nil {
		return nil, err
	}
	if err := h.setupProbers(); err != nil {
		return nil, err
	}
	h.installScrubRepair()
	return h, nil
}

// --- population helpers (deterministic orderings) ---

func (h *harness) hostNames() []string { return h.c.Fabric.Hosts() }

func (h *harness) diskNames() []string {
	var out []string
	for _, d := range h.c.Fabric.Disks() {
		out = append(out, string(d))
	}
	sort.Strings(out)
	return out
}

// leafHubNames returns the fabric's leaf hubs — the bounded-blast-radius
// targets for hub faults (an aggregation hub failure is a host-wide outage,
// already covered by host crashes).
func (h *harness) leafHubNames() []string {
	var out []string
	for _, hub := range h.c.Fabric.Hubs() {
		if strings.Contains(string(hub), "leafhub") {
			out = append(out, string(hub))
		}
	}
	sort.Strings(out)
	return out
}

// machineNames lists the machines network faults may target: the hosts and
// the master-replica machines.
func (h *harness) machineNames() []string {
	out := append([]string(nil), h.c.Fabric.Hosts()...)
	for _, m := range h.c.Masters {
		out = append(out, "mach-"+m.Name())
	}
	return out
}

// --- workload setup ---

func (h *harness) setupWorkload() error {
	size := int64(blocksPerSpace) * BlockSize
	for i := 0; i < workloadPairs; i++ {
		for j := 0; j < 2; j++ {
			name := fmt.Sprintf("chaos%d%c", i, 'a'+j)
			cl := h.c.Client(name, fmt.Sprintf("chaos-svc%d%c", i, 'a'+j))
			var rep core.AllocateReply
			err := errPending
			cl.Allocate(size, func(r core.AllocateReply, e error) { rep, err = r, e })
			h.settleUntil(func() bool { return !errors.Is(err, errPending) }, 2*time.Minute)
			if err != nil {
				return fmt.Errorf("chaos: allocating %s: %w", name, err)
			}
			err = errPending
			cl.Mount(rep.Space, func(e error) { err = e })
			h.settleUntil(func() bool { return !errors.Is(err, errPending) }, 2*time.Minute)
			if err != nil {
				return fmt.Errorf("chaos: mounting %s: %w", name, err)
			}
			r := &replica{
				name:   name,
				cl:     cl,
				space:  rep.Space,
				diskID: rep.DiskID,
				offset: rep.Offset,
				blocks: make([]replicaBlock, blocksPerSpace),
			}
			h.replicas = append(h.replicas, r)
			h.bySpace[rep.Space] = r
		}
		if a, b := h.replicas[2*i], h.replicas[2*i+1]; a.diskID == b.diskID {
			h.logf("warning: pair %d copies share disk %s", i, a.diskID)
		}
	}
	// Initial write pass: every block of every pair gets acknowledged data
	// before any fault fires, so the whole surface is auditable.
	for i := 0; i < workloadPairs; i++ {
		for blk := 0; blk < blocksPerSpace; blk++ {
			h.writePair(i, blk)
		}
	}
	ok := h.settleUntil(func() bool { return h.inflightWrites() == 0 }, time.Hour)
	if !ok {
		return fmt.Errorf("chaos: initial write pass did not drain")
	}
	for _, r := range h.replicas {
		for blk := range r.blocks {
			if r.blocks[blk].uncertain || r.blocks[blk].data == nil {
				return fmt.Errorf("chaos: initial write to %s block %d not acknowledged", r.name, blk)
			}
		}
	}
	h.logf("workload ready: %d pairs x %d blocks x %d KiB, seed %d",
		workloadPairs, blocksPerSpace, BlockSize/1024, h.opts.Seed)
	return nil
}

var errPending = errors.New("chaos: pending")

// Gray-run probe workload: every grayProbeEvery, each pair's prober issues a
// chained burst of reads and records the round trips. Bursts (rather than
// single spaced reads) let the per-target circuit breaker engage within a
// tick the way a real request stream would.
const (
	grayProbeEvery = 15 * time.Minute
	grayProbeBurst = 40
)

// setupProbers creates one extra client per pair that mounts both copies and
// — in mitigated runs — hedges reads between them. Gated on the gray-run
// options so default runs stay byte-identical.
func (h *harness) setupProbers() error {
	if !h.opts.GrayFaults && !h.opts.Mitigation {
		return nil
	}
	for i := 0; i < workloadPairs; i++ {
		cl := h.c.Client(fmt.Sprintf("probe%d", i), fmt.Sprintf("probe-svc%d", i))
		for j := 0; j < 2; j++ {
			r := h.replicas[2*i+j]
			err := errPending
			cl.Mount(r.space, func(e error) { err = e })
			h.settleUntil(func() bool { return !errors.Is(err, errPending) }, 2*time.Minute)
			if err != nil {
				return fmt.Errorf("chaos: prober %d mounting %s: %w", i, r.name, err)
			}
		}
		if h.opts.Mitigation {
			mit := cl.EnableMitigation()
			mit.SetMirror(h.replicas[2*i].space, h.replicas[2*i+1].space)
		}
		h.probers = append(h.probers, cl)
	}
	h.probeHist = h.opts.Recorder.Histogram("chaos", "probe_read_seconds")
	return nil
}

// grayOpen reports whether any gray fault window is currently open (probe
// reads issued now are classified as degraded-phase samples).
func (h *harness) grayOpen() bool {
	return h.anyOpen(func(fam *family) bool { return fam.gray })
}

// anyOpen reports whether a family satisfying is has a window open.
func (h *harness) anyOpen(is func(*family) bool) bool {
	for w := range h.open {
		if is(&families[w.fam]) {
			return true
		}
	}
	return false
}

func (h *harness) probeAll() {
	for pair := range h.probers {
		h.probePair(pair, grayProbeBurst)
	}
}

// probePair runs one chained read burst against a pair, alternating between
// the two copies — hedged in mitigated runs, plain otherwise. Reading both
// copies keeps every pair disk's health history warm, which the master's
// cohort-median gray scoring needs. A read that races a concurrent write or
// migration is skipped for verification, but a completed read of stable
// acknowledged data must return those bytes (a hedge or redirect serving
// stale/wrong data would surface here).
func (h *harness) probePair(pair, remaining int) {
	if remaining == 0 {
		return
	}
	p, fresh := h.probes.Get()
	if fresh {
		p.h, p.done = h, p.finish
	}
	p.pair, p.remaining = pair, remaining
	p.r = h.replicas[2*pair+remaining%2]
	p.blk = h.rng.Intn(blocksPerSpace)
	// A hedged read may be served by either copy, and the copies legally
	// diverge when one side's write failed. So verification snapshots both
	// copies' block state and flags only a read that matches neither stable
	// acknowledged copy — that data came from nowhere.
	p.ba, p.bb = &h.replicas[2*pair].blocks[p.blk], &h.replicas[2*pair+1].blocks[p.blk]
	p.va, p.vb = p.ba.version, p.bb.version
	p.degraded = h.grayOpen()
	p.start = h.c.Sched.Now()
	cl, off := h.probers[pair], int64(p.blk)*BlockSize
	if h.opts.Mitigation {
		cl.ReadHedged(p.r.space, off, BlockSize, p.done)
	} else {
		cl.Read(p.r.space, off, BlockSize, p.done)
	}
}

// probe is one probe read in flight and its snapshot of the pair's block
// state. Records come from a free list on the harness, not one per pair:
// probeAll starts a pair's next burst every grayProbeEvery whatever is still
// in flight, so two bursts' reads may overlap on one pair.
type probe struct {
	h               *harness
	pair, remaining int
	r               *replica
	blk             int
	ba, bb          *replicaBlock
	va, vb          int
	degraded        bool
	start           simtime.Time
	done            func([]byte, error) // finish, bound once per record
}

// stableAt reports whether b still holds the acknowledged data it held at
// version v, with nothing in flight that could have changed it.
func stableAt(b *replicaBlock, v int) bool {
	return b.version == v && !b.uncertain && b.inflight == 0 && b.data != nil
}

// finish records the read, verifies it against the record's snapshot, and
// recycles the record before it chains the burst's next read, which may
// take the same record.
func (p *probe) finish(data []byte, err error) {
	h := p.h
	rtt := h.c.Sched.Now() - p.start
	h.stats.ProbeReads++
	if p.degraded {
		h.probeDegraded = append(h.probeDegraded, rtt)
	} else {
		h.probeHealthy = append(h.probeHealthy, rtt)
	}
	h.probeHist.ObserveDuration(rtt)
	if err != nil {
		h.stats.ProbeErrors++ // may race a migration or fault window; not a violation
	} else if stableAt(p.ba, p.va) && stableAt(p.bb, p.vb) && !p.matches(data) {
		h.violatef("probe: %s block %d returned bytes matching neither copy", p.r.name, p.blk)
	}
	pair, remaining := p.pair, p.remaining
	*p = probe{h: h, done: p.done}
	h.probes.Put(p)
	h.probePair(pair, remaining-1)
}

// matches reports whether a read equals either copy's acknowledged data. A
// read that is a copy's store chunk at the generation and version that
// copy last verified is known equal; otherwise the bytes are compared, the
// copy whose chunk they are first, and a copy whose chunk compares equal
// remembers the generation.
func (p *probe) matches(data []byte) bool {
	h := p.h
	blocks := [2]*replicaBlock{p.ba, p.bb}
	var seen [2]chunkGen
	var own [2]bool
	for i, b := range blocks {
		r := h.replicas[2*p.pair+i]
		st := h.c.Disks[r.diskID].Store()
		if gen, ok := st.Generation(r.offset+int64(p.blk)*BlockSize, data); ok {
			seen[i], own[i] = chunkGen{st, gen, b.version}, true
			if b.verified == seen[i] {
				h.stats.ProbeMemoHits++
				return true
			}
		}
	}
	order := [2]int{0, 1}
	if own[1] {
		order = [2]int{1, 0}
	}
	for _, i := range order {
		b := blocks[i]
		h.stats.ProbeBytesCompared += int64(len(data))
		if bytes.Equal(data, b.data) {
			if own[i] {
				b.verified = seen[i]
			}
			return true
		}
	}
	return false
}

// onQuarantine drains a quarantined disk: every workload replica on it is
// migrated to a fresh allocation (the master's allocator now excludes the
// gray disk, so the new space lands elsewhere).
func (h *harness) onQuarantine(diskID, host string) {
	h.stats.GrayQuarantines++
	h.logf("quarantine: disk %s on %s — draining", diskID, host)
	for _, r := range h.replicas {
		if r.diskID == diskID {
			h.migrateReplica(r)
		}
	}
}

// migrateReplica moves one replica to a new allocation: allocate, mount,
// switch the harness's expectations over, rewrite every acknowledged block
// into the new space, and release the old one. In-flight writes to the old
// space are dropped by the per-block version bump, exactly like a media
// wipe.
func (h *harness) migrateReplica(r *replica) {
	if r.migrating {
		return
	}
	r.migrating = true
	size := int64(blocksPerSpace) * BlockSize
	r.cl.Allocate(size, func(rep core.AllocateReply, err error) {
		if err != nil {
			r.migrating = false
			h.logf("quarantine drain: allocating for %s: %v", r.name, err)
			return
		}
		r.cl.Mount(rep.Space, func(err error) {
			if err != nil {
				r.migrating = false
				h.logf("quarantine drain: mounting %s for %s: %v", rep.Space, r.name, err)
				return
			}
			old, oldDisk := r.space, r.diskID
			delete(h.bySpace, old)
			r.space, r.diskID, r.offset = rep.Space, rep.DiskID, rep.Offset
			h.bySpace[r.space] = r
			for blk := range r.blocks {
				b := &r.blocks[blk]
				b.version++ // writes still in flight to the old space no longer count
				if b.data != nil {
					h.writeReplicaData(r, blk, b.data)
				}
			}
			r.cl.Release(old, func(err error) {
				if err != nil {
					h.logf("quarantine drain: releasing %s: %v", old, err)
				}
			})
			h.stats.GrayMigrations++
			r.migrating = false
			h.logf("quarantine drain: %s migrated %s (disk %s) -> %s (disk %s)",
				r.name, old, oldDisk, r.space, r.diskID)
			h.remountProber(r)
		})
	})
}

// remountProber points a pair's prober at a replica's post-migration space
// and refreshes the hedging mirror registration.
func (h *harness) remountProber(r *replica) {
	if len(h.probers) == 0 {
		return
	}
	for i, rr := range h.replicas {
		if rr != r {
			continue
		}
		pair := i / 2
		cl := h.probers[pair]
		space := r.space
		cl.Mount(space, func(err error) {
			if err != nil {
				h.logf("prober %d: remounting %s: %v", pair, space, err)
				return
			}
			if m := cl.Mitigation(); m != nil {
				m.SetMirror(h.replicas[2*pair].space, h.replicas[2*pair+1].space)
			}
		})
		return
	}
}

// installScrubRepair points every endpoint scrubber at the harness's
// known-good copies (standing in for the replica/EC read a service-level
// repair would do).
func (h *harness) installScrubRepair() {
	for _, name := range sortedKeys(h.c.EndPoints, strings.Compare) {
		sc := h.c.EndPoints[name].Scrubber()
		if sc == nil {
			continue
		}
		sc.SetRepairFunc(func(ex core.ExportArgs, off int64, length int, done func([]byte, bool)) {
			r := h.bySpace[ex.Space]
			blk := int(off / BlockSize)
			if r == nil || blk >= len(r.blocks) || int64(blk)*BlockSize != off {
				done(nil, false)
				return
			}
			b := &r.blocks[blk]
			if b.data == nil || b.uncertain || length != len(b.data) {
				done(nil, false)
				return
			}
			done(b.data, true)
		})
	}
}

// ramp holds byte(i) at every i. Every pattern is a window onto it: the
// pattern whose byte i is base+byte(i) is ramp[base:base+BlockSize].
var ramp = func() []byte {
	r := make([]byte, BlockSize+256)
	for i := range r {
		r[i] = byte(i)
	}
	return r
}()

// pattern returns deterministic block content for a (pair, block, sequence)
// triple: byte i is base+byte(i). It is a slice of the shared ramp, never
// written: both replicas' known-good copies, repair writes and the
// scrubber's repair source hold it, and its capacity is capped so an append
// cannot reach the ramp behind it. checkRamp verifies nobody wrote it.
func (h *harness) pattern(pair, blk, seq int) []byte {
	base := int(byte(pair*31 + blk*7 + seq*13 + int(h.opts.Seed)))
	return ramp[base : base+BlockSize : base+BlockSize]
}

// checkRamp is the end-of-run guard on the shared pattern buffer: a stray
// write through any pattern slice (a layer that scribbles on its caller's
// source buffer) would corrupt every pattern that overlaps it.
func (h *harness) checkRamp() {
	for i, b := range ramp {
		if b != byte(i) {
			h.violatef("final: pattern ramp overwritten at byte %d (0x%02x, want 0x%02x): a write path scribbled on its caller's buffer", i, b, byte(i))
			return
		}
	}
}

func (h *harness) writePair(pair, blk int) {
	h.writeSeq++
	data := h.pattern(pair, blk, h.writeSeq)
	h.writeReplicaData(h.replicas[2*pair], blk, data)
	h.writeReplicaData(h.replicas[2*pair+1], blk, data)
}

func (h *harness) writeReplicaData(r *replica, blk int, data []byte) {
	b := &r.blocks[blk]
	b.version++
	v := b.version
	b.inflight++
	b.uncertain = true // unverifiable until (and unless) the write acks
	r.cl.Write(r.space, int64(blk)*BlockSize, data, func(err error) {
		b.inflight--
		if b.version != v {
			return // superseded by a newer write or a media wipe
		}
		if err == nil {
			b.data = data
			b.uncertain = false
			h.stats.WritesAcked++
		} else {
			h.stats.WritesFailed++
		}
	})
}

func (h *harness) inflightWrites() int {
	n := 0
	for _, r := range h.replicas {
		for i := range r.blocks {
			n += r.blocks[i].inflight
		}
	}
	return n
}

// --- logging ---

// runLog is a run's event log and violation list, stamped with simulated
// time. All three run pipelines (fault schedule, traffic, fleet) write one.
type runLog struct {
	now             func() time.Duration
	tag             string // what a violation's log line starts with
	Log, Violations []string
}

func (l *runLog) stamp() string {
	now := l.now()
	day := now / (24 * time.Hour)
	rem := now % (24 * time.Hour)
	return fmt.Sprintf("[d%03d %02d:%02d:%02d]", day,
		rem/time.Hour, (rem%time.Hour)/time.Minute, (rem%time.Minute)/time.Second)
}

func (l *runLog) logf(format string, a ...any) {
	l.Log = append(l.Log, l.stamp()+" "+fmt.Sprintf(format, a...))
}

// violatef records an invariant violation and logs it.
func (l *runLog) violatef(format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	l.Violations = append(l.Violations, l.stamp()+" "+msg)
	l.logf("%s%s", l.tag, msg)
}

func (h *harness) violatef(format string, a ...any) {
	h.runLog.violatef(format, a...)
	h.opts.Recorder.Counter("chaos", "violations_total").Inc()
	h.opts.Recorder.Instant("chaos", "violation", "auditor")
}

// --- fault application ---

// apply executes one scheduled fault through its family's row: log it,
// record it (metrics, trace, the open-window registry), then inject or heal.
func (h *harness) apply(f Fault) {
	i, opens := familyOf(f.Kind)
	// Copy-relative gray disk faults resolve their target now, against the
	// replica's current placement.
	if i >= 0 && families[i].target == targetGrayDisk && f.A == "" && len(h.replicas) > 0 {
		f.A = h.replicas[f.Copy%len(h.replicas)].diskID
	}
	h.stats.FaultsApplied++
	h.logf("fault: %s", f)
	rec, kind := h.opts.Recorder, f.Kind.String()
	rec.Counter("chaos", "faults_total", obs.L("kind", kind)).Inc()
	target := f.A
	if f.B != "" {
		target = f.A + "<->" + f.B
	}
	rec.Instant("chaos", kind, "injector", obs.L("target", target))
	if i < 0 {
		return
	}
	fam := &families[i]
	act := fam.inject
	if fam.key != "" {
		// A window fault: its span covers the window from the first opener
		// to the closer (or the drain phase).
		id := windowOf(i, f)
		w, isOpen := h.open[id]
		if !opens {
			act = fam.heal
			w.span.End()
			delete(h.open, id)
		} else if !isOpen {
			h.open[id] = openWindow{f, rec.Begin("chaos", fam.span, "injector", obs.L("target", target))}
		}
	}
	if err := act(h, f); err != nil {
		h.logf("fault error: %v", err)
	}
	if fam.net {
		h.netEvent()
	}
}

func (h *harness) netEvent() { h.lastNetFault = h.c.Sched.Now() }

// markWiped invalidates the harness's expectations for every replica on a
// freshly replaced (blank-media) disk.
func (h *harness) markWiped(diskID string) {
	for _, r := range h.replicas {
		if r.diskID != diskID {
			continue
		}
		for i := range r.blocks {
			b := &r.blocks[i]
			b.version++ // drop acks from writes that hit the old media
			if b.data != nil {
				b.uncertain = true
			}
		}
	}
}

// scheduleRebuild restores a replaced disk's replicas from the harness's
// good copies — the role a replica/EC rebuild plays in a real deployment.
// Retries cover rebuilds that collide with other open fault windows.
func (h *harness) scheduleRebuild(diskID string) {
	for _, delay := range []time.Duration{30 * time.Minute, 3 * time.Hour, 9 * time.Hour} {
		h.c.Sched.FireAfter(delay, func() {
			for _, r := range h.replicas {
				if r.diskID != diskID {
					continue
				}
				for blk := range r.blocks {
					b := &r.blocks[blk]
					if b.uncertain && b.data != nil && b.inflight == 0 {
						h.writeReplicaData(r, blk, b.data)
					}
				}
			}
		})
	}
}

// --- invariant checking ---

func (h *harness) activeMasters() int {
	n := 0
	for _, m := range h.c.Masters {
		if m.Active() {
			n++
		}
	}
	return n
}

func (h *harness) checkAllocations(stage string) {
	m := h.c.ActiveMaster()
	if m == nil {
		return
	}
	if err := m.ValidateAllocations(); err != nil {
		if !h.allocSeen[err.Error()] {
			h.allocSeen[err.Error()] = true
			h.violatef("%s: allocation invariant: %v", stage, err)
		}
	}
}

// checkQuietMasters verifies the single-active-master invariant, but only at
// quiet points: no network fault window open and none closed within the last
// two hours (well past session TTL + sweep + election convergence).
func (h *harness) checkQuietMasters() {
	if h.anyOpen(func(fam *family) bool { return fam.net }) {
		return
	}
	if h.c.Sched.Now()-h.lastNetFault < 2*time.Hour {
		return
	}
	if n := h.activeMasters(); n != 1 {
		h.violatef("quiet-point master invariant: %d active masters", n)
	}
}

// checkQuarantine verifies the allocator never handed out space on a
// quarantined disk (core.Master.ValidateQuarantine).
func (h *harness) checkQuarantine(stage string) {
	m := h.c.ActiveMaster()
	if m == nil {
		return
	}
	if err := m.ValidateQuarantine(); err != nil {
		if !h.allocSeen[err.Error()] {
			h.allocSeen[err.Error()] = true
			h.violatef("%s: quarantine invariant: %v", stage, err)
		}
	}
}

func (h *harness) audit() {
	h.opts.Recorder.Instant("chaos", "audit-tick", "auditor")
	h.checkAllocations("audit")
	h.checkQuarantine("audit")
	h.checkQuietMasters()
	for _, r := range h.replicas {
		h.auditReplica(r)
	}
}

// auditReplica read-verifies every acknowledged block of one replica.
// Checksum errors are *detections*, not violations — the storage layer did
// its job — and trigger a repair write from the good copy. A successful read
// returning wrong bytes is silent corruption: an invariant violation.
func (h *harness) auditReplica(r *replica) {
	if r.auditing {
		return
	}
	var targets []int
	for i := range r.blocks {
		b := &r.blocks[i]
		if b.data != nil && !b.uncertain && b.inflight == 0 {
			targets = append(targets, i)
		}
	}
	if len(targets) == 0 {
		return
	}
	r.auditing = true
	rec := h.opts.Recorder
	span := rec.Begin("chaos", "audit:"+r.name, "auditor", obs.L("blocks", fmt.Sprint(len(targets))))
	started := h.c.Sched.Now()
	okCount, errCount := 0, 0
	pending := len(targets)
	finish := func() {
		rec.Histogram("chaos", "audit_seconds").ObserveDuration(h.c.Sched.Now() - started)
		span.End(obs.L("ok", fmt.Sprint(okCount)), obs.L("errors", fmt.Sprint(errCount)))
		r.auditing = false
		if okCount > 0 {
			r.streak = 0
		} else if errCount > 0 {
			r.streak++
			if r.streak == streakLimit {
				h.violatef("remount not converging: %s failed %d consecutive audits", r.name, r.streak)
			}
		}
	}
	for _, blk := range targets {
		blk := blk
		b := &r.blocks[blk]
		v := b.version
		h.stats.AuditReads++
		r.cl.Read(r.space, int64(blk)*BlockSize, BlockSize, func(data []byte, err error) {
			defer func() {
				pending--
				if pending == 0 {
					finish()
				}
			}()
			if b.version != v || b.uncertain {
				return // block changed while the read was in flight
			}
			if err != nil {
				if errors.Is(err, block.ErrChecksum) {
					h.stats.CorruptionsDetected++
					h.logf("audit: checksum error on %s block %d — repairing from good copy", r.name, blk)
					h.repairBlock(r, blk)
				} else {
					errCount++
				}
				return
			}
			if !bytes.Equal(data, b.data) {
				h.violatef("silent corruption: %s block %d read acked data back wrong", r.name, blk)
				h.repairBlock(r, blk) // restore so one hit doesn't re-fire every audit
				return
			}
			okCount++
		})
	}
}

// repairBlock rewrites a block from the harness's good copy (recomputing the
// on-disk CRC on the way down).
func (h *harness) repairBlock(r *replica, blk int) {
	b := &r.blocks[blk]
	if b.data == nil {
		return
	}
	data := b.data
	b.version++
	v := b.version
	b.inflight++
	r.cl.Write(r.space, int64(blk)*BlockSize, data, func(err error) {
		b.inflight--
		if b.version != v {
			return
		}
		if err == nil {
			b.uncertain = false
			h.stats.Repairs++
		} else {
			b.uncertain = true
		}
	})
}

// --- run loop ---

func (h *harness) execute(schedule []Fault) (*Report, error) {
	o := h.opts
	start := h.c.Sched.Now()
	for _, f := range schedule {
		f := f
		h.c.Sched.At(start+f.At, func() { h.apply(f) })
	}
	tick := 0
	writeTick := h.c.Sched.Every(writeEvery, func() {
		pair := tick % workloadPairs
		tick++
		h.writePair(pair, h.rng.Intn(blocksPerSpace))
	})
	auditTick := h.c.Sched.Every(auditEvery, h.audit)
	var probeTick *simtime.Ticker
	if len(h.probers) > 0 {
		probeTick = h.c.Sched.Every(grayProbeEvery, h.probeAll)
	}

	h.lastNetFault = start
	h.c.Settle(o.Duration)
	h.drain()
	h.c.Settle(12 * time.Hour)
	writeTick.Stop()
	auditTick.Stop()
	if probeTick != nil {
		probeTick.Stop()
	}

	h.finalAudit()
	h.finalWritePass()
	if n := h.activeMasters(); n != 1 {
		h.violatef("final: master invariant: %d active masters", n)
	}
	h.checkAllocations("final")
	h.checkQuarantine("final")
	h.checkHistory()
	h.checkRamp()
	h.logf("run complete: %d faults, %d violations", h.stats.FaultsApplied, len(h.Violations))

	rep := &Report{
		Seed:       o.Seed,
		Opts:       o,
		Schedule:   schedule,
		Log:        h.Log,
		Violations: h.Violations,
		Stats:      h.stats,
	}
	for _, name := range sortedKeys(h.c.EndPoints, strings.Compare) {
		if sc := h.c.EndPoints[name].Scrubber(); sc != nil {
			st := sc.Stats()
			rep.Stats.ScrubScanned += st.Scanned
			rep.Stats.ScrubBad += st.BadBlocks
			rep.Stats.ScrubRepaired += st.Repaired
			rep.Stats.ScrubUnrepaired += st.Unrepaired
		}
	}
	for _, r := range h.replicas {
		rep.Stats.Remounts += r.cl.Remounts
	}
	slices.Sort(h.probeHealthy)
	slices.Sort(h.probeDegraded)
	rep.Stats.ProbeHealthyP99 = workload.Quantile(h.probeHealthy, 990)
	rep.Stats.ProbeDegradedP99 = workload.Quantile(h.probeDegraded, 990)
	for _, cl := range h.probers {
		if m := cl.Mitigation(); m != nil {
			rep.Stats.Hedges += m.Hedges
			rep.Stats.HedgeWins += m.HedgeWins
			rep.Stats.BreakerOpens += m.BreakerOpens
			rep.Stats.Redirects += m.Redirects
			rep.Stats.FastFails += m.FastFails
		}
	}
	if len(h.probers) > 0 {
		o.Recorder.Counter("chaos", "probe_bytes_compared_total").Add(uint64(rep.Stats.ProbeBytesCompared))
		o.Recorder.Counter("chaos", "probe_memo_hits_total").Add(uint64(rep.Stats.ProbeMemoHits))
	}
	return rep, nil
}

// checkHistory runs the recorded metadata history through the reference
// model's linearizability checker (internal/model). Every violating
// partition becomes a regular harness violation, so MinimizeParallel shrinks
// model-checked failures exactly like data-loss ones.
func (h *harness) checkHistory() {
	res := h.hist.Check()
	h.stats.ModelOps = res.Ops
	h.stats.ModelPartitions = res.Partitions
	if res.BudgetExceeded > 0 {
		h.logf("model: search budget exhausted on %d partitions (inconclusive)", res.BudgetExceeded)
	}
	for _, v := range res.Violations {
		h.violatef("model: %s: %s", v.Partition, v.Msg)
	}
	h.logf("model: %d metadata ops across %d partitions checked against the reference model",
		res.Ops, res.Partitions)
}

// drain force-heals everything still open so the convergence invariants can
// be checked against a fault-free cluster (also what makes truncated
// minimizer prefixes well-formed): every open window's heal in table order,
// then every window's trace span in span-key order.
func (h *harness) drain() {
	h.logf("drain: healing all outstanding faults")
	ids := sortedKeys(h.open, windowID.compare)
	for _, id := range ids {
		if err := families[id.fam].heal(h, h.open[id].f); err != nil {
			h.logf("drain error: %v", err)
		}
	}
	h.netEvent()
	slices.SortFunc(ids, func(a, b windowID) int { return strings.Compare(a.spanKey(), b.spanKey()) })
	for _, id := range ids {
		h.open[id].span.End(obs.L("status", "drained"))
	}
	clear(h.open)
}

// finalAudit is the strict end-of-run sweep: every acknowledged block must
// read back correct. Checksum detections get one repair + recheck; anything
// still failing is a violation.
func (h *harness) finalAudit() {
	h.logf("final: strict audit")
	type recheck struct {
		r   *replica
		blk int
	}
	var rechecks []recheck
	pending := 0
	for _, r := range h.replicas {
		r := r
		for blk := range r.blocks {
			blk := blk
			b := &r.blocks[blk]
			if b.data == nil || b.uncertain || b.inflight > 0 {
				continue
			}
			pending++
			h.stats.AuditReads++
			r.cl.Read(r.space, int64(blk)*BlockSize, BlockSize, func(data []byte, err error) {
				pending--
				if err != nil {
					if errors.Is(err, block.ErrChecksum) {
						h.stats.CorruptionsDetected++
						h.logf("final audit: checksum error on %s block %d — repairing", r.name, blk)
						h.repairBlock(r, blk)
					}
					rechecks = append(rechecks, recheck{r, blk})
					return
				}
				if !bytes.Equal(data, r.blocks[blk].data) {
					h.violatef("final audit: silent corruption on %s block %d", r.name, blk)
				}
			})
		}
	}
	h.settleUntil(func() bool { return pending == 0 }, 2*time.Hour)
	if len(rechecks) == 0 {
		return
	}
	h.c.Settle(30 * time.Minute) // let repair writes land
	for _, rc := range rechecks {
		rc := rc
		b := &rc.r.blocks[rc.blk]
		if b.data == nil || b.uncertain {
			continue
		}
		pending++
		r := rc.r
		r.cl.Read(r.space, int64(rc.blk)*BlockSize, BlockSize, func(data []byte, err error) {
			pending--
			if err != nil {
				h.violatef("final audit: %s block %d unreadable after repair: %v", r.name, rc.blk, err)
				return
			}
			if !bytes.Equal(data, b.data) {
				h.violatef("final audit: %s block %d wrong after repair", r.name, rc.blk)
			}
		})
	}
	h.settleUntil(func() bool { return pending == 0 }, 2*time.Hour)
}

// finalWritePass proves the write path converged: every block of every
// replica accepts a fresh acknowledged write on the healed cluster.
func (h *harness) finalWritePass() {
	h.logf("final: convergence write pass")
	for pair := 0; pair < workloadPairs; pair++ {
		for blk := 0; blk < blocksPerSpace; blk++ {
			h.writePair(pair, blk)
		}
	}
	h.settleUntil(func() bool { return h.inflightWrites() == 0 }, 2*time.Hour)
	// One retry round for stragglers that raced a rebuild.
	for _, r := range h.replicas {
		for blk := range r.blocks {
			b := &r.blocks[blk]
			if b.uncertain && b.inflight == 0 {
				h.writeSeq++
				h.writeReplicaData(r, blk, h.pattern(0, blk, h.writeSeq))
			}
		}
	}
	h.settleUntil(func() bool { return h.inflightWrites() == 0 }, 2*time.Hour)
	for _, r := range h.replicas {
		for blk := range r.blocks {
			if r.blocks[blk].uncertain {
				h.violatef("write path not converged: %s block %d rejects writes on healed cluster", r.name, blk)
			}
		}
	}
}

// settleUntil advances the simulation until cond holds or budget elapses.
func (h *harness) settleUntil(cond func() bool, budget time.Duration) bool {
	deadline := h.c.Sched.Now() + budget
	for h.c.Sched.Now() < deadline {
		if cond() {
			return true
		}
		h.c.Settle(15 * time.Second)
	}
	return cond()
}

// sortedKeys snapshots a map's keys in cmp order, so what is done per key
// never depends on the runtime's map iteration order.
func sortedKeys[K comparable, V any](m map[K]V, cmp func(a, b K) int) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, cmp)
	return out
}
