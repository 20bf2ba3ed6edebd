package fleet

import (
	"slices"
	"strconv"
	"time"

	"ustore/internal/obs"
	"ustore/internal/simtime"
)

// The per-shard background task scheduler's pacing.
const (
	// schedTick is the scan period.
	schedTick = 2 * time.Second
	// maxInflight bounds concurrently executing tasks.
	maxInflight = 8
	// tasksPerTick bounds new tasks admitted per tick — the rate limit that
	// keeps repair traffic from starving foreground work.
	tasksPerTick = 4
	// repairBytesPerSec models per-task copy bandwidth (256 MB/s).
	repairBytesPerSec = 256e6
	// balanceSkew is the (max-min)/capacity per-unit usage spread that
	// triggers rebalancing.
	balanceSkew = 0.25
	// inspectPerTick is how many volume records the inspection cursor
	// verifies per tick.
	inspectPerTick = 16
)

// Task kinds, in generation priority order.
const (
	taskRepair  = "repair"  // fragment on a dead disk or dead unit
	taskMigrate = "migrate" // fragment parked on another shard's disks
	taskDrop    = "drop"    // fragment on a draining disk
	taskBalance = "balance" // fragment moved off an overloaded unit
)

// shardScheduler is the leader-side background task engine (the BlobStore
// Scheduler idea, §Snippet 1): every tick it derives repair, migration,
// drain, rebalance and inspection work from heartbeat-reported state, and
// executes it under inflight and per-tick rate limits.
type shardScheduler struct {
	m      *ShardMaster
	ticker *simtime.Ticker

	inflight int
	// epoch invalidates inflight-task completions from before the latest
	// start(): a copy launched under a lost leadership must not touch the
	// rebuilt state or the inflight gauge.
	epoch int
	// pendingVol fences volumes with an inflight task so a slow copy is
	// not re-issued every tick.
	pendingVol map[string]bool
	// snap is the inspection pass's volume IDs, sorted when the pass
	// began, and next the position of the next one to inspect.
	snap []string
	next int
	// ids and fids are the buffers generate sorts every volume ID and the
	// foreign set into, when a pass needs them.
	ids, fids []string

	cTasks     map[string]*obs.Counter
	cRequeued  *obs.Counter
	cInspected *obs.Counter
	cUnitDead  *obs.Counter
	cBytes     *obs.Counter
}

func newShardScheduler(m *ShardMaster) *shardScheduler {
	s := &shardScheduler{
		m:          m,
		pendingVol: make(map[string]bool),
	}
	label := obs.L("shard", strconv.Itoa(m.shard))
	rec := m.rec
	s.cTasks = map[string]*obs.Counter{}
	for _, kind := range []string{taskRepair, taskMigrate, taskDrop, taskBalance} {
		s.cTasks[kind] = rec.Counter("fleet", "tasks_total", label, obs.L("kind", kind))
	}
	s.cRequeued = rec.Counter("fleet", "tasks_requeued_total", label)
	s.cInspected = rec.Counter("fleet", "inspected_total", label)
	s.cUnitDead = rec.Counter("fleet", "unit_dead_declared_total", label)
	s.cBytes = rec.Counter("fleet", "repair_bytes_total", label)
	return s
}

func (s *shardScheduler) start() {
	s.stop()
	s.epoch++
	s.pendingVol = make(map[string]bool)
	s.inflight = 0
	s.snap, s.next = s.snap[:0], 0
	s.ticker = s.m.sched.Every(schedTick, s.tick)
}

func (s *shardScheduler) stop() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
}

// task is one unit of background work: re-place the volume's fragments
// currently on `from` disks somewhere healthy.
type task struct {
	kind   string
	volume string
	from   []string
}

func (s *shardScheduler) tick() {
	m := s.m
	if !m.leading || m.down {
		return
	}
	s.checkUnits()
	s.inspect()
	// Cap generation by launch capacity: generate() fences every emitted
	// task's volume in pendingVol and only finish() of a launched task
	// unfences, so a task generated but never launched would stay fenced
	// (and unrepaired) forever.
	budget := tasksPerTick
	if room := maxInflight - s.inflight; budget > room {
		budget = room
	}
	for _, t := range s.generate(budget) {
		s.launch(t)
	}
	m.gAlive.Set(float64(len(m.units) - m.ix.DownUnits()))
}

// checkUnits flips owned units to dead after unitDeadAfter silent
// heartbeat intervals.
func (s *shardScheduler) checkUnits() {
	m := s.m
	deadline := time.Duration(unitDeadAfter) * heartbeatInterval
	now := m.sched.Now()
	for n, seen := range m.unitSeen {
		if !m.ix.UnitDown(n) && now-seen > deadline {
			m.ix.SetUnitDown(n, true)
			s.cUnitDead.Inc()
			m.rec.Instant("fleet", "unit-declared-dead", "fleet",
				obs.L("shard", strconv.Itoa(m.shard)), obs.L("unit", m.units[n]))
		}
	}
}

// diskBad reports whether a fragment on diskID needs repair: the disk was
// reported dead, or its whole unit went silent (our own or, for exported
// fragments not yet migrated home, any unit the fleet killed is detected
// by the owning shard — here we only see our own units' heartbeats, so
// foreign disks are handled by migration).
func (s *shardScheduler) diskBad(diskID string) bool {
	ix := s.m.ix
	r, owned := ix.Row(diskID)
	return owned && (ix.Bad(r) || ix.UnitDown(ix.UnitOf(r)))
}

// diskDraining reports whether an owned disk is marked for graceful drain.
func (s *shardScheduler) diskDraining(diskID string) bool {
	r, owned := s.m.ix.Row(diskID)
	return owned && s.m.ix.Draining(r)
}

// generate scans volumes in ID order, so task order is deterministic, and
// emits up to budget tasks in priority order: repair, migrate, drop, then at
// most one balance move. A pass walks only what it can find something in:
// migrate the foreign set; repair, drop and balance every volume, and only
// while a disk is bad or a unit down, a disk draining, or the units skewed.
func (s *shardScheduler) generate(budget int) []task {
	m := s.m
	if budget <= 0 {
		return nil
	}
	var tasks []task
	var all []string // every volume ID, sorted on first use
	sorted := func() []string {
		if all == nil {
			s.ids = sortedKeys(s.ids, m.vols)
			all = s.ids
		}
		return all
	}

	add := func(t task) bool {
		tasks = append(tasks, t)
		s.pendingVol[t.volume] = true
		return len(tasks) < budget
	}

	for _, pass := range []string{taskRepair, taskMigrate, taskDrop} {
		var ids []string
		switch {
		case pass == taskMigrate:
			// A volume outside the foreign set has nothing to migrate, so
			// walking the set emits what walking every ID would.
			if len(m.foreign) > 0 {
				s.fids = sortedKeys(s.fids, m.foreign)
				ids = s.fids
			}
		case pass == taskRepair && (m.ix.BadDisks() > 0 || m.ix.DownUnits() > 0),
			pass == taskDrop && m.ix.DrainingDisks() > 0:
			ids = sorted()
		}
		for _, id := range ids {
			if s.pendingVol[id] {
				continue
			}
			rec := m.vols[id]
			var from []string
			for _, d := range rec.Disks {
				switch pass {
				case taskRepair:
					if s.diskBad(d) {
						from = append(from, d)
					}
				case taskMigrate:
					if !m.ownsDisk(d) {
						from = append(from, d)
					}
				case taskDrop:
					if s.diskDraining(d) && !s.diskBad(d) {
						from = append(from, d)
					}
				}
			}
			if len(from) == 0 {
				continue
			}
			if !add(task{kind: pass, volume: id, from: from}) {
				return tasks
			}
		}
	}
	if t, ok := s.balanceTask(sorted); ok {
		add(t)
	}
	return tasks
}

// sortedKeys returns set's keys in ascending order, in buf's array if it
// has room (nil for an empty set and a nil buf).
func sortedKeys[V any](buf []string, set map[string]V) []string {
	buf = slices.Grow(buf[:0], len(set))
	for id := range set {
		buf = append(buf, id)
	}
	slices.Sort(buf)
	return buf
}

// balanceTask proposes moving one fragment from the most-loaded alive unit
// to relieve skew beyond balanceSkew; sorted returns every volume ID in
// order.
func (s *shardScheduler) balanceTask(sorted func() []string) (task, bool) {
	m := s.m
	minU, maxU := -1, -1
	var minB, maxB int64 = -1, -1
	unitCap := int64(hostsPerUnit*disksPerHost) * diskCapacity
	for n := range m.units {
		if m.ix.UnitDown(n) {
			continue
		}
		b := m.ix.UnitUsed(n)
		if minB < 0 || b < minB {
			minB, minU = b, n
		}
		if b > maxB {
			maxB, maxU = b, n
		}
	}
	if minU < 0 || minU == maxU {
		return task{}, false
	}
	if float64(maxB-minB)/float64(unitCap) < balanceSkew {
		return task{}, false
	}
	// First unfenced volume with a fragment on the hot unit.
	for _, id := range sorted() {
		if s.pendingVol[id] {
			continue
		}
		for _, d := range m.vols[id].Disks {
			if r, owned := m.ix.Row(d); owned && m.ix.UnitOf(r) == maxU {
				return task{kind: taskBalance, volume: id, from: []string{d}}, true
			}
		}
	}
	return task{}, false
}

// launch runs a task: the copy takes size/repairBytesPerSec of virtual
// time per fragment moved, then the record is re-placed and committed.
func (s *shardScheduler) launch(t task) {
	m := s.m
	s.inflight++
	s.cTasks[t.kind].Inc()
	rec, ok := m.vols[t.volume]
	dur := 10 * time.Millisecond
	if ok {
		bytes := rec.Size * int64(len(t.from))
		dur += time.Duration(float64(bytes) / repairBytesPerSec * float64(time.Second))
		s.cBytes.Add(uint64(bytes))
	}
	span := m.rec.Begin("fleet", "task:"+t.kind, "shard"+strconv.Itoa(m.shard),
		obs.L("volume", t.volume))
	epoch := s.epoch
	m.sched.FireAfter(dur, func() {
		s.finish(t, epoch)
		span.End()
	})
}

// finish completes a task after its copy time: pick replacement disks,
// update the record, commit, and free the vacated fragments.
func (s *shardScheduler) finish(t task, epoch int) {
	m := s.m
	if epoch != s.epoch {
		return // launched under a leadership this replica has since lost
	}
	s.inflight--
	delete(s.pendingVol, t.volume)
	if !m.leading || m.down {
		return
	}
	rec, ok := m.vols[t.volume]
	if !ok {
		return // released or migrated away mid-task
	}
	// Fragments that stay put constrain the new picks.
	var keep []string
	var exclude []string
	for _, d := range rec.Disks {
		if slices.Contains(t.from, d) {
			continue
		}
		keep = append(keep, d)
		if di := m.f.Topo.Disks[d]; di != nil {
			exclude = append(exclude, di.Domain)
		}
	}
	need := len(rec.Disks) - len(keep)
	if need <= 0 {
		return
	}
	rows, _ := m.ix.Spread(m.spread[:0], need, rec.Size, spreadLevel, exclude)
	m.spread = rows
	if len(rows) < need {
		// Not enough healthy domains right now; the next tick regenerates
		// the task (state is unchanged).
		s.cRequeued.Inc()
		return
	}
	newDisks := keep
	for _, r := range rows {
		newDisks = append(newDisks, m.ix.ID(r))
		m.ix.Charge(r, rec.Size)
	}
	slices.Sort(newDisks)
	// Free the vacated fragments: owned disks directly, foreign disks via
	// the owning shard's export ledger.
	foreign := map[int][]string{}
	for _, d := range t.from {
		if m.ownsDisk(d) {
			m.unplace(d, rec.Size)
		} else if u := m.f.Topo.UnitOfDisk(d); u != nil {
			foreign[u.Shard] = append(foreign[u.Shard], d)
		}
	}
	rec.Disks = newDisks
	m.putVol(t.volume, rec)
	m.store.Set(volPath(t.volume), encodeVol(rec), nil)
	m.freeForeignFragments(t.volume, foreign)
}

// inspect verifies inspectPerTick live records per tick. A pass walks the
// volume IDs sorted when it began, skipping those released since; a record
// created mid-pass waits for the next pass, which begins when this one runs
// out (the BlobStore inspector's snapshot, §Snippet 1).
func (s *shardScheduler) inspect() {
	m := s.m
	if len(m.vols) == 0 {
		return
	}
	for n := 0; n < inspectPerTick; {
		if s.next == len(s.snap) {
			s.snap, s.next = sortedKeys(s.snap, m.vols), 0
		}
		id := s.snap[s.next]
		s.next++
		rec, ok := m.vols[id]
		if !ok {
			continue
		}
		n++
		s.cInspected.Inc()
		if len(rec.Disks) == 0 || rec.Size < 0 {
			m.rec.Instant("fleet", "inspect-anomaly", "fleet", obs.L("volume", id))
		}
	}
}
