package fleet

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ustore/internal/coord"
	"ustore/internal/obs"
	"ustore/internal/placement"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// ShardMaster is one replica of a metadata shard: a Master-like state
// machine for the slice of the fleet its shard owns. Hard state (volume
// records, the export ledger, the shard map) lives in the shard's coord
// group; soft state (disk usage, spin state, unit liveness) is rebuilt
// from coord plus agent heartbeats on every election. The per-disk part of
// it lives in one placement.Index, which is also what allocation reads.
//
// Volume operations serialize through a single queue charged
// opServiceTime each — the CPU bottleneck that makes shard count the
// unit of metadata scaling (Paxos itself pipelines, so consensus latency
// alone would not bound throughput).
type ShardMaster struct {
	f       *Fleet
	shard   int
	replica int
	name    string
	rpcName string

	sched    *simtime.Scheduler
	rpc      *simnet.RPCNode
	store    *coord.Store
	election *coord.Election
	// rec is the fleet's recorder. May be nil.
	rec *obs.Recorder
	// foreignBelieved[k] is this master's believed-leader replica index for
	// foreign shard k (cross-shard calls rotate through believed leaders
	// instead of peeking another shard's state).
	foreignBelieved []int

	leading bool
	down    bool
	// incarnation counts crash/restart cycles; each restart campaigns under
	// a fresh incarnation-stamped election session (see restart).
	incarnation int
	// elGen invalidates the election read barrier (see becomeLeader): it
	// bumps on every elected/deposed/crash transition so a barrier that
	// resolves after leadership already changed hands does nothing.
	elGen int

	// map_ is this replica's installed shard map.
	map_ *ShardMap
	// frozen slots answer ErrBusy until an InstallMap flips their ownership.
	frozen map[int]bool

	// Leader soft state (rebuilt on election). Writes to vols go through
	// putVol and delVol, which keep foreign current: the IDs of the volumes
	// with a fragment on a disk this shard does not own, which the
	// scheduler's migrate pass walks.
	vols    map[string]VolRecord
	foreign map[string]struct{}
	exports map[string]VolRecord
	// unitSeen[n] is when owned unit n (its number in ix) last reported.
	unitSeen []simtime.Time
	// ix holds every owned disk's bytes used and spin state (rebuilt from
	// the tree), agent-reported dead and draining marks, and which owned
	// units went silent. place/unplace, heartbeats and the scheduler's
	// liveness check update it in place; allocation and re-placement pick
	// from it.
	ix *placement.Index
	// units[n] is owned unit n's ID, and unitNo the reverse map.
	units  []string
	unitNo map[string]int

	// Serial op queue: queue[qHead:] waits.
	queue []*shardOp
	qHead int
	busy  bool
	// ops recycles answered op records (see opDone).
	ops simtime.FreeList[shardOp]
	// spread is the buffer allocation picks its rows into.
	spread []int

	sch *shardScheduler

	cOps    *obs.Counter
	cAlloc  *obs.Counter
	cStale  *obs.Counter
	gQueue  *obs.Gauge
	gAlive  *obs.Gauge
	hOpTime *obs.Histogram
}

// shardOp is one serialized volume operation, and the receiver of the
// event that ends its service time.
type shardOp struct {
	m      *ShardMaster
	method string
	// The request's fields, copied by enqueue: its record goes back to the
	// router when the handler returns.
	volume  string
	size    int64
	service string
	reply   simnet.Replier
	start   simtime.Time
	// guarded marks an op awaiting a coord commit: its coord callback, not
	// opDone, recycles it. guard is its commit guard (see guardTimer) until
	// the guard fires or opDone cancels it.
	guarded bool
	guard   *simtime.Event
	// lookup is an allocate's answer, which the coord callback sends: the
	// new record's shared reply, holding its disks.
	lookup *LookupReply
	// committed is the op's coord callback, bound once per record.
	committed func(error)
}

func (op *shardOp) Fire() {
	m, start := op.m, op.start // exec may recycle op
	m.exec(op)
	m.hOpTime.ObserveDuration(m.sched.Now() - start)
}

func newShardMaster(f *Fleet, shard, replica int, store *coord.Store) *ShardMaster {
	name := fmt.Sprintf("s%dm%d", shard, replica)
	m := &ShardMaster{
		f:       f,
		shard:   shard,
		replica: replica,
		name:    name,
		rpcName: "fm:" + name,
		sched:   f.Sched,
		rec:     f.rec,
		store:   store,
		frozen:  make(map[int]bool),
		vols:    make(map[string]VolRecord),
		foreign: make(map[string]struct{}),
		exports: make(map[string]VolRecord),
		ix:      f.Topo.newShardIndex(shard),
		unitNo:  make(map[string]int),

		foreignBelieved: make([]int, f.Cfg.Shards),
	}
	owned := f.Topo.ShardUnits(shard)
	m.units, m.unitSeen = make([]string, len(owned)), make([]simtime.Time, len(owned))
	for _, uid := range owned {
		r, _ := m.ix.Row(f.Topo.UnitByID[uid].Disks[0])
		n := m.ix.UnitOf(r)
		m.units[n], m.unitNo[uid] = uid, n
	}
	m.rpc = simnet.NewRPCNode(f.Net, m.rpcName)
	m.sch = newShardScheduler(m)
	// Leader soft state must track the replicated tree even for commits this
	// leadership never issued: a previous leader's Allocate or Release can
	// sit out a partition's paxos churn and apply only after the new
	// leader's election barrier and rebuild have already run. Watches fire
	// on local apply, so folding them here keeps m.vols a faithful cache of
	// the tree no matter whose proposal finally landed.
	store.WatchChildren("/vol", m.onVolEvent)
	shardLabel := obs.L("shard", strconv.Itoa(shard))
	rec := m.rec
	m.cOps = rec.Counter("fleet", "ops_total", shardLabel)
	m.cAlloc = rec.Counter("fleet", "alloc_total", shardLabel)
	m.cStale = rec.Counter("fleet", "stale_replies_total", shardLabel)
	m.gQueue = rec.Gauge("fleet", "queue_depth", shardLabel)
	m.gAlive = rec.Gauge("fleet", "units_alive", shardLabel)
	m.hOpTime = rec.Histogram("fleet", "op_seconds", shardLabel)
	m.register()
	return m
}

// installInitialMap seeds the replica's map before the fleet starts.
func (m *ShardMaster) installInitialMap(mp *ShardMap) { m.map_ = mp.Clone() }

// start begins campaigning for shard leadership; a restarted replica
// campaigns under an incarnation-stamped session (see restart).
func (m *ShardMaster) start() {
	m.election = coord.NewElection(m.store, "/active", m.name, electionTTL)
	if m.incarnation > 0 {
		m.election.SetSession(fmt.Sprintf("election:/active:%s#%d", m.name, m.incarnation))
	}
	m.election.OnElected = m.becomeLeader
	m.election.OnDeposed = m.loseLeadership
	m.election.Run()
}

// crash takes the replica down hard (KillUnit, CrashReplica).
func (m *ShardMaster) crash() {
	m.down = true
	m.elGen++
	m.leading = false
	m.rpc.Node().SetDown(true)
	m.sch.stop()
	if m.election != nil {
		m.election.Stop()
	}
	m.flushQueue()
}

// restart brings a crashed replica back (RestartReplica). Leader soft state
// stays empty until a future election's rebuild; durable state returns via
// paxos catchup. The new election campaigns under an incarnation-stamped
// session: the previous life's session may still own the leader znode, and
// re-creating it by ID would refresh it — the restarted process would then
// keep the znode alive with its own pings while never learning it leads,
// wedging the group leaderless forever.
func (m *ShardMaster) restart() {
	m.down = false
	m.leading = false
	m.rpc.Node().SetDown(false)
	m.frozen = make(map[int]bool)
	// A restarted process has no soft state: liveness and disk-health views
	// refill from agent heartbeats (each beat carries the full cumulative
	// dead/draining sets), and rebuild() grace-stamps units on election.
	clear(m.unitSeen)
	m.ix.ResetHealth()
	m.incarnation++
	m.start()
}

func (m *ShardMaster) becomeLeader() {
	m.elGen++
	gen := m.elGen
	if m.down {
		return
	}
	// Idempotent tree roots for volume records and the export ledger. The
	// second create doubles as a read barrier: this replica may win the
	// election while its local store replica still lags the chosen prefix
	// (it accepted commands during a partition without yet learning they
	// were chosen), and rebuild() from that lagging state would silently
	// drop committed records from leader soft state. Store applies are
	// strictly slot-ordered and the done callback fires on LOCAL apply, so
	// once our own proposal has applied, every command chosen before this
	// election has too. Until then the replica answers ErrNotLeader and
	// routers keep rotating.
	m.store.Create("/vol", nil, "", nil)
	m.store.Create("/exp", nil, "", func(error) {
		if m.down || gen != m.elGen {
			return // deposed or crashed while the barrier was in flight
		}
		m.leading = true
		m.rebuild()
		m.sch.start()
		m.rec.Instant("fleet", "shard-elected", "fleet",
			obs.L("shard", strconv.Itoa(m.shard)), obs.L("leader", m.name))
	})
}

func (m *ShardMaster) loseLeadership() {
	m.elGen++
	m.leading = false
	m.sch.stop()
	m.flushQueue()
	m.frozen = make(map[int]bool)
}

// onVolEvent folds a late-landing "/vol" tree change into leader soft
// state (see the WatchChildren registration in newShardMaster). Ops this
// replica issued itself are already folded before their commit applies
// (m.vols is written optimistically), so the presence checks make the fold
// idempotent against our own traffic.
func (m *ShardMaster) onVolEvent(ev coord.Event) {
	if !m.leading || m.down {
		return
	}
	id := strings.TrimPrefix(ev.Path, "/vol/")
	switch ev.Type {
	case coord.EventCreated:
		if _, ok := m.vols[id]; ok {
			return
		}
		rec, err := decodeVol(ev.Data)
		if err != nil {
			return
		}
		m.putVol(id, rec)
		for _, d := range rec.Disks {
			m.place(d, rec.Size)
		}
	case coord.EventDeleted:
		if m.frozen[SlotOf(id)] {
			// Migration DropSlot: onDropSlot moves the record to the export
			// ledger itself; folding the delete here would skip that move.
			return
		}
		rec, ok := m.vols[id]
		if !ok {
			return
		}
		// A previous leadership's release landing late: apply the same
		// bookkeeping execRelease would have.
		foreign := map[int][]string{}
		m.unplaceRecord(rec, foreign)
		m.delVol(id)
		m.freeForeignFragments(id, foreign)
	}
}

// rebuild reconstructs leader soft state from the shard's replicated tree.
func (m *ShardMaster) rebuild() {
	m.vols = make(map[string]VolRecord)
	clear(m.foreign)
	m.exports = make(map[string]VolRecord)
	m.ix.ResetUsage()
	if data, err := m.store.Get("/map"); err == nil {
		if mp := decodeMap(data, m.map_.Replicas); mp != nil && mp.Epoch > m.map_.Epoch {
			m.map_ = mp
		}
	}
	// Restore durable freezes so an interrupted migration's Handoff succeeds
	// against the new leader. Slots the current map routes elsewhere are
	// stale freezes from a completed move — drop them. A missing /frozen
	// reads as no freezes.
	m.frozen = make(map[int]bool)
	data, _ := m.store.Get("/frozen")
	for _, slot := range decodeFrozen(data) {
		if m.map_.Slots[slot] == m.shard {
			m.frozen[slot] = true
		}
	}
	load := func(root string, put func(string, VolRecord)) {
		ids, err := m.store.Children(root)
		if err != nil {
			return
		}
		for _, id := range ids {
			data, err := m.store.Get(root + "/" + id)
			if err != nil {
				continue
			}
			rec, err := decodeVol(data)
			if err != nil {
				continue
			}
			put(id, rec)
			for _, d := range rec.Disks {
				m.place(d, rec.Size)
			}
		}
	}
	load("/vol", m.putVol)
	load("/exp", func(id string, rec VolRecord) { m.exports[id] = rec })
	// Grace-stamp every owned unit so a fresh leader waits a full dead
	// window before declaring silence fatal.
	now := m.sched.Now()
	for n := range m.unitSeen {
		m.unitSeen[n] = now
	}
}

// putVol writes a volume record into leader soft state and files it in or
// out of the foreign set; delVol removes it from both. Every write to
// m.vols goes through them but lookupReply's, which only caches a reply on
// the record and keeps its Disks.
func (m *ShardMaster) putVol(id string, rec VolRecord) {
	m.vols[id] = rec
	for _, d := range rec.Disks {
		if !m.ownsDisk(d) {
			m.foreign[id] = struct{}{}
			return
		}
	}
	delete(m.foreign, id)
}

func (m *ShardMaster) delVol(id string) {
	delete(m.vols, id)
	delete(m.foreign, id)
}

// ownsDisk reports whether a disk belongs to a unit this shard owns.
func (m *ShardMaster) ownsDisk(diskID string) bool {
	u := m.f.Topo.UnitOfDisk(diskID)
	return u != nil && u.Shard == m.shard
}

// --- RPC surface ---

func (m *ShardMaster) register() {
	// Serialized volume operations.
	for _, method := range []string{"Allocate", "Lookup", "Release"} {
		method := method
		m.rpc.RegisterAsync(method, func(_ string, args any, reply *simnet.AsyncReply) {
			q, ok := args.(*simnet.Record[VolumeArgs])
			if !ok {
				reply.Reply(nil, errBadArgs)
				return
			}
			m.enqueue(method, &q.Msg, reply)
		})
	}
	m.rpc.Register("Heartbeat", m.onHeartbeat)
	m.rpc.RegisterAsync("FreezeSlot", m.onFreezeSlot)
	m.rpc.Register("Handoff", m.onHandoff)
	m.rpc.RegisterAsync("InstallSlot", m.onInstallSlot)
	m.rpc.RegisterAsync("DropSlot", m.onDropSlot)
	m.rpc.RegisterAsync("InstallMap", m.onInstallMap)
	m.rpc.RegisterAsync("FreeForeign", m.onFreeForeign)
}

// routeCheck validates that a volume op belongs here right now. It returns
// the refusal to send back, or nil to proceed.
func (m *ShardMaster) routeCheck(volume string) error {
	if !m.leading {
		return ErrNotLeader
	}
	slot := SlotOf(volume)
	if m.map_.Slots[slot] != m.shard {
		m.cStale.Inc()
		return m.stale()
	}
	if m.frozen[slot] {
		return ErrBusy
	}
	return nil
}

// stale refuses a call routed on an older map, with this replica's.
func (m *ShardMaster) stale() error { return &StaleError{ErrStale, m.map_.Clone()} }

// enqueue queues a volume op. It copies a's fields: a is valid only until
// the handler returns.
func (m *ShardMaster) enqueue(method string, a *VolumeArgs, reply simnet.Replier) {
	if err := m.routeCheck(a.Volume); err != nil {
		reply.Reply(nil, err)
		return
	}
	op, fresh := m.ops.Get()
	if fresh {
		op.committed = op.commitDone
	}
	op.m, op.method, op.reply = m, method, reply
	op.volume, op.size, op.service = a.Volume, a.Size, a.Service
	m.queue = append(m.queue, op)
	m.gQueue.Set(float64(len(m.queue) - m.qHead))
	m.pump()
}

// pump starts the next queued op if the service unit is idle. Each op
// holds the unit for opServiceTime before its state transition runs.
func (m *ShardMaster) pump() {
	if m.busy || m.qHead == len(m.queue) || m.down {
		return
	}
	op := m.queue[m.qHead]
	// Clear the served slot: the array outlives the pop, and a served op
	// pins its reply. Once half the array is served, the waiting
	// ops move to its front, so a drained queue reuses the whole array.
	m.queue[m.qHead] = nil
	if m.qHead++; 2*m.qHead >= len(m.queue) {
		n := copy(m.queue, m.queue[m.qHead:])
		clear(m.queue[n:])
		m.queue, m.qHead = m.queue[:n], 0
	}
	m.gQueue.Set(float64(len(m.queue) - m.qHead))
	m.busy = true
	op.start = m.sched.Now()
	m.sched.FireAfterR(opServiceTime, op)
}

// opDone completes an op exactly once and releases the service unit. An
// unguarded op is done with: it returns to the free list before the reply,
// so the reply's sends may reuse it. A guarded op's coord callback still
// holds it; the guard and the callback may both call opDone, and the first
// call clears the reply, so the second does nothing. That first call takes
// the guard out of the queue (a fired guard has already let go of it), so
// no guard outlives its answer; the callback recycles the record after its
// own call.
func (m *ShardMaster) opDone(op *shardOp, result any, err error) {
	reply := op.reply
	if reply == nil {
		return
	}
	if op.guarded {
		op.reply = nil
		op.guard.Cancel()
		op.guard.Release()
		op.guard = nil
	} else {
		m.recycle(op)
	}
	reply.Reply(result, err)
	m.busy = false
	m.pump()
}

// recycle returns an answered op record to the free list.
func (m *ShardMaster) recycle(op *shardOp) {
	*op = shardOp{committed: op.committed}
	m.ops.Put(op)
}

// flushQueue answers every queued op ErrNotLeader (lost leadership or crash;
// crashed replicas' replies are dropped by the downed node anyway).
func (m *ShardMaster) flushQueue() {
	q := m.queue[m.qHead:]
	m.queue, m.qHead = nil, 0
	m.gQueue.Set(0)
	m.busy = false
	for _, op := range q {
		m.opDone(op, nil, ErrNotLeader)
	}
}

func (m *ShardMaster) exec(op *shardOp) {
	m.cOps.Inc()
	// Re-check routing: the map may have flipped while the op queued.
	if err := m.routeCheck(op.volume); err != nil {
		m.opDone(op, nil, err)
		return
	}
	switch op.method {
	case "Allocate":
		m.execAllocate(op)
	case "Lookup":
		m.execLookup(op)
	case "Release":
		m.execRelease(op)
	default:
		m.opDone(op, nil, errBadArgs)
	}
}

// commitGuard schedules a liveness bound on an op awaiting a coord commit:
// if the proposal is lost to a leadership change the client gets ErrBusy
// instead of the service unit wedging forever.
func (m *ShardMaster) commitGuard(op *shardOp) {
	op.guarded = true
	op.guard = m.sched.AfterR(4*electionTTL, (*guardTimer)(op))
}

// guardTimer is an op's commit guard: it fires only while the op still
// waits for its commit, and answers it ErrBusy. The op is not recycled before
// its coord callback runs, which comes after opDone took the guard out of
// the queue, so a live guard always holds its own op.
type guardTimer shardOp

func (g *guardTimer) Fire() {
	op := (*shardOp)(g)
	op.guard.Release()
	op.guard = nil
	op.m.opDone(op, nil, ErrBusy)
}

// commitDone is a guarded op's coord callback (op.committed). It answers
// the op unless the guard already did, then recycles the record: nothing
// else holds it any more.
func (op *shardOp) commitDone(err error) {
	m := op.m
	switch {
	case op.method == "Allocate" && err != nil && !errors.Is(err, coord.ErrExists):
		// Roll back the optimistic charge: a creation reported as failed
		// must not stay lookupable or keep its capacity held until the
		// next failover rebuild. (After a lose/regain cycle rebuild()
		// already discarded the entry, so guard on its presence.)
		if _, ok := m.vols[op.volume]; ok {
			m.delVol(op.volume)
			for _, d := range op.lookup.Disks {
				m.unplace(d, op.size)
			}
		}
		m.opDone(op, nil, err)
	case op.method == "Allocate":
		m.opDone(op, op.lookup, nil)
	case err != nil && !errors.Is(err, coord.ErrNotFound):
		m.opDone(op, nil, err)
	default:
		m.opDone(op, nil, nil)
	}
	m.recycle(op)
}

// place charges a fragment onto a disk and spins it up; a disk of a unit
// another shard owns is not this replica's to account.
func (m *ShardMaster) place(diskID string, size int64) {
	if r, ok := m.ix.Row(diskID); ok {
		m.ix.Charge(r, size)
	}
}

// unplace releases a fragment from an owned disk.
func (m *ShardMaster) unplace(diskID string, size int64) {
	if r, ok := m.ix.Row(diskID); ok {
		m.ix.Release(r, size)
	}
}

func (m *ShardMaster) execAllocate(op *shardOp) {
	if rec, ok := m.vols[op.volume]; ok {
		// Idempotent re-allocate (client retry after a lost reply) — but
		// only once the record is durable. The in-memory entry is written
		// optimistically before its commit lands, and a commit can be
		// silently lost when paxos leadership moves away mid-flight (a
		// forwarded proposal doesn't survive a partition); acknowledging
		// from soft state alone would hand the client a volume no future
		// rebuild will ever see. ErrBusy until the replicated tree has it.
		if !m.store.Exists(volPath(op.volume)) {
			m.opDone(op, nil, ErrBusy)
			return
		}
		m.opDone(op, m.lookupReply(op.volume, rec), nil)
		return
	}
	rows, _ := m.ix.Spread(m.spread[:0], replicas, op.size, spreadLevel, nil)
	m.spread = rows
	if len(rows) < replicas {
		m.opDone(op, nil, fmt.Errorf("insufficient failure domains: placed %d/%d", len(rows), replicas))
		return
	}
	disks := make([]string, len(rows))
	for i, r := range rows {
		disks[i] = m.ix.ID(r)
		m.ix.Charge(r, op.size)
	}
	// The answer is the new record's shared reply, so the first Lookup
	// finds it built.
	op.lookup = &LookupReply{Size: op.size, Disks: disks}
	rec := VolRecord{Size: op.size, Service: op.service, Disks: disks, lookup: op.lookup}
	m.putVol(op.volume, rec)
	m.cAlloc.Inc()
	m.commitGuard(op)
	m.store.Create(volPath(op.volume), encodeVol(rec), "", op.committed)
}

func (m *ShardMaster) execLookup(op *shardOp) {
	rec, ok := m.vols[op.volume]
	if !ok {
		m.opDone(op, nil, errNoVolume)
		return
	}
	m.opDone(op, m.lookupReply(op.volume, rec), nil)
}

// lookupReply returns the shared answer about volume's record, rec. Every
// answer about one record version shares one reply. Disks is never written
// in place, so the cached reply is current while it holds the record's Size
// and the very same Disks slice.
func (m *ShardMaster) lookupReply(volume string, rec VolRecord) *LookupReply {
	rep := rec.lookup
	if rep == nil || rep.Size != rec.Size || !sameSlice(rep.Disks, rec.Disks) {
		rep = &LookupReply{Size: rec.Size, Disks: rec.Disks}
		rec.lookup = rep
		m.vols[volume] = rec
	}
	return rep
}

// sameSlice reports whether a and b are the same slice of one array.
func sameSlice(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func (m *ShardMaster) execRelease(op *shardOp) {
	rec, ok := m.vols[op.volume]
	if !ok {
		// Idempotent re-release — trustworthy only once the tombstone is
		// durable (see execAllocate): a delete whose commit was lost with a
		// paxos leadership change leaves the record in the replicated tree,
		// and an OK here would let the client forget a volume the next
		// rebuild resurrects.
		if m.store.Exists(volPath(op.volume)) {
			m.opDone(op, nil, ErrBusy)
			return
		}
		m.opDone(op, nil, nil)
		return
	}
	foreign := map[int][]string{}
	m.unplaceRecord(rec, foreign)
	m.delVol(op.volume)
	m.commitGuard(op)
	m.store.Delete(volPath(op.volume), op.committed)
	m.freeForeignFragments(op.volume, foreign)
}

// unplaceRecord frees a record's owned fragments at once and adds the rest
// to foreign by owning shard: fragments parked on another shard's disks (a
// migrated-in volume) free through that shard's export ledger.
func (m *ShardMaster) unplaceRecord(rec VolRecord, foreign map[int][]string) {
	for _, d := range rec.Disks {
		if m.ownsDisk(d) {
			m.unplace(d, rec.Size)
		} else if u := m.f.Topo.UnitOfDisk(d); u != nil {
			foreign[u.Shard] = append(foreign[u.Shard], d)
		}
	}
}

// freeForeignFragments notifies each shard holding exported fragments of a
// volume that those bytes are free.
func (m *ShardMaster) freeForeignFragments(volume string, foreign map[int][]string) {
	shards := make([]int, 0, len(foreign))
	for k := range foreign {
		shards = append(shards, k)
	}
	sort.Ints(shards)
	for _, k := range shards {
		args := FreeForeignArgs{Volume: volume, Disks: append([]string(nil), foreign[k]...)}
		// Generous retry budget: a lost free leaks export-ledger bytes until
		// an operator reconciles, so ride out a full leader failover.
		m.callShard(k, "FreeForeign", args, 40, func(any, error) {})
	}
}

// callShard is the cross-shard call, sent from this master's RPC node with
// its believed-leader slice. Leader discovery is by rotation, like clients
// (Fleet.leaderCall). A replica that went down stops its retry chains here.
func (m *ShardMaster) callShard(shard int, method string, args any, attempts int, done func(res any, err error)) {
	if m.down {
		done(nil, errors.New("fleet: replica down"))
		return
	}
	m.f.leaderCall(m.rpc, m.foreignBelieved, m.callShard, shard, method, args, attempts, done)
}

// --- Heartbeats ---

// onHeartbeat folds a beat into the index; it keeps nothing of the request.
func (m *ShardMaster) onHeartbeat(_ string, args any) (any, error) {
	q, ok := args.(*simnet.Record[HeartbeatArgs])
	if !ok {
		return nil, errBadArgs
	}
	a := &q.Msg
	if !m.leading {
		return nil, ErrNotLeader
	}
	if u, ok := m.unitNo[a.Unit]; ok {
		m.unitSeen[u] = m.sched.Now()
		m.ix.SetUnitDown(u, false)
	}
	for _, d := range a.Dead {
		if r, ok := m.ix.Row(d); ok {
			m.ix.SetBad(r, true)
		}
	}
	for _, d := range a.Draining {
		if r, ok := m.ix.Row(d); ok {
			m.ix.SetDraining(r, true)
		}
	}
	return nil, nil
}

// --- Slot migration ---

func (m *ShardMaster) onFreezeSlot(_ string, args any, reply *simnet.AsyncReply) {
	a := args.(FreezeSlotArgs)
	if !m.leading {
		reply.Reply(nil, ErrNotLeader)
		return
	}
	if m.map_.Slots[a.Slot] != m.shard {
		reply.Reply(nil, m.stale())
		return
	}
	// The freeze must be durable before it is acknowledged: a leader that
	// froze a slot in memory only and then failed over would leave its
	// successor answering Handoff with "slot not frozen", wedging the
	// migration. The frozen set persists as one znode; rebuild() reloads it.
	m.frozen[a.Slot] = true
	m.persistFrozen(func(err error) {
		if err != nil {
			reply.Reply(nil, ErrBusy)
			return
		}
		reply.Reply(nil, nil)
	})
}

// persistFrozen commits the current frozen-slot set to the "/frozen" znode.
// Lazily created on first freeze, so fleets that never migrate slots never
// touch it (keeps steady-state proposal streams — and the checked-in bench
// goldens built on them — unchanged).
func (m *ShardMaster) persistFrozen(done func(error)) {
	data := encodeFrozen(m.frozen)
	if m.store.Exists("/frozen") {
		m.store.Set("/frozen", data, done)
		return
	}
	m.store.Create("/frozen", data, "", func(err error) {
		if errors.Is(err, coord.ErrExists) {
			// Applied state lagged the Exists check; overwrite.
			m.store.Set("/frozen", data, done)
			return
		}
		done(err)
	})
}

func (m *ShardMaster) onHandoff(_ string, args any) (any, error) {
	a := args.(HandoffArgs)
	if !m.leading {
		return nil, ErrNotLeader
	}
	if !m.frozen[a.Slot] {
		return nil, errors.New("slot not frozen")
	}
	out := map[string]VolRecord{}
	for id, rec := range m.vols {
		if SlotOf(id) == a.Slot {
			out[id] = rec.clone()
		}
	}
	return HandoffReply{out}, nil
}

func (m *ShardMaster) onInstallSlot(_ string, args any, reply *simnet.AsyncReply) {
	a := args.(InstallSlotArgs)
	if !m.leading {
		reply.Reply(nil, ErrNotLeader)
		return
	}
	ids := make([]string, 0, len(a.Vols))
	for id := range a.Vols {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	remaining := len(ids)
	if remaining == 0 {
		reply.Reply(nil, nil)
		return
	}
	// A commit that fails (leadership lost mid-install) must not be
	// acknowledged: the source would DropSlot and the records would be
	// durably lost. Reply ErrBusy so the admin retry loop re-drives the
	// install (re-Creates of already-committed records return ErrExists).
	failed := false
	for _, id := range ids {
		rec := a.Vols[id].clone()
		// A re-sent install (admin retry under a fresh request ID) must not
		// charge the disks twice.
		if _, dup := m.vols[id]; !dup {
			for _, d := range rec.Disks {
				m.place(d, rec.Size)
			}
		}
		m.putVol(id, rec)
		m.store.Create(volPath(id), encodeVol(rec), "", func(err error) {
			if err != nil && !errors.Is(err, coord.ErrExists) {
				failed = true
			}
			remaining--
			if remaining == 0 {
				if failed {
					reply.Reply(nil, ErrBusy)
					return
				}
				reply.Reply(nil, nil)
			}
		})
	}
}

func (m *ShardMaster) onDropSlot(_ string, args any, reply *simnet.AsyncReply) {
	a := args.(DropSlotArgs)
	if !m.leading {
		reply.Reply(nil, ErrNotLeader)
		return
	}
	var ids []string
	for id := range m.vols {
		if SlotOf(id) == a.Slot {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	remaining := len(ids)
	if remaining == 0 {
		reply.Reply(nil, nil)
		return
	}
	// The in-memory vols -> exports move is applied per record only after
	// both its commits land, and a failed commit replies ErrBusy: acknowledging
	// an uncommitted drop would let the epoch bump while the replicated tree
	// still holds (or has lost) the records, and mutating m.vols first would
	// make the admin's retry find an empty slot and no-op.
	failed := false
	for _, id := range ids {
		id, rec := id, m.vols[id]
		var createErr, deleteErr error
		pending := 2
		step := func() {
			pending--
			if pending > 0 {
				return
			}
			if createErr != nil && !errors.Is(createErr, coord.ErrExists) {
				failed = true
			} else if deleteErr != nil && !errors.Is(deleteErr, coord.ErrNotFound) {
				failed = true
			} else if cur, ok := m.vols[id]; ok {
				// Our disks keep holding the fragments until the new owner
				// migrates them home, so usage stays charged and the export
				// ledger makes that survivable across our own failovers.
				m.delVol(id)
				m.exports[id] = cur
			}
			remaining--
			if remaining == 0 {
				if failed {
					reply.Reply(nil, ErrBusy)
					return
				}
				reply.Reply(nil, nil)
			}
		}
		m.store.Create(expPath(id), encodeVol(rec), "", func(err error) { createErr = err; step() })
		m.store.Delete(volPath(id), func(err error) { deleteErr = err; step() })
	}
}

func (m *ShardMaster) onInstallMap(_ string, args any, reply *simnet.AsyncReply) {
	a := args.(InstallMapArgs)
	if a.Map == nil {
		reply.Reply(nil, errors.New("nil map"))
		return
	}
	if a.Map.Epoch > m.map_.Epoch {
		m.map_ = a.Map.Clone()
		// Thaw slots the new epoch routes elsewhere.
		thawed := false
		for slot := range m.frozen {
			if m.map_.Slots[slot] != m.shard {
				delete(m.frozen, slot)
				thawed = true
			}
		}
		// Keep the durable freeze set in step (leader only; fire-and-forget —
		// if the commit is lost to a failover, rebuild() prunes moved-away
		// slots against the map anyway).
		if thawed && m.leading {
			m.persistFrozen(func(error) {})
		}
	}
	if !m.leading {
		// The map above was still adopted (a free refresh), but the admin's
		// broadcast contract is "installed at the LEADER, durably": an OK
		// from a follower would let the broadcast succeed while the actual
		// leader keeps routing on the old epoch — exactly the stale-leader
		// hole a healed partition opens. Rotate the caller onward.
		reply.Reply(nil, ErrNotLeader)
		return
	}
	// Persist whenever the durable copy is behind the installed epoch — not
	// only when the epoch just advanced — so an admin retry after a failed
	// commit (leadership churn) re-drives the write instead of short-
	// circuiting on the already-current in-memory map.
	var stored int64
	if data, err := m.store.Get("/map"); err == nil {
		if mp := decodeMap(data, nil); mp != nil {
			stored = mp.Epoch
		}
	}
	if stored >= m.map_.Epoch {
		reply.Reply(nil, nil) // already durable
		return
	}
	data := encodeMap(m.map_)
	finish := func(err error) {
		if err != nil && !errors.Is(err, coord.ErrExists) {
			reply.Reply(nil, ErrBusy)
			return
		}
		reply.Reply(nil, nil)
	}
	if m.store.Exists("/map") {
		m.store.Set("/map", data, finish)
	} else {
		m.store.Create("/map", data, "", finish)
	}
}

func (m *ShardMaster) onFreeForeign(_ string, args any, reply *simnet.AsyncReply) {
	a := args.(FreeForeignArgs)
	if !m.leading {
		reply.Reply(nil, ErrNotLeader)
		return
	}
	rec, ok := m.exports[a.Volume]
	if !ok {
		reply.Reply(nil, nil) // idempotent
		return
	}
	freed := map[string]bool{}
	for _, d := range a.Disks {
		freed[d] = true
	}
	var remaining []string
	for _, d := range rec.Disks {
		if freed[d] && m.ownsDisk(d) {
			m.unplace(d, rec.Size)
		} else {
			remaining = append(remaining, d)
		}
	}
	if len(remaining) > 0 {
		rec.Disks = remaining
		m.exports[a.Volume] = rec
		m.store.Set(expPath(a.Volume), encodeVol(rec), func(error) {
			reply.Reply(nil, nil)
		})
		return
	}
	delete(m.exports, a.Volume)
	m.store.Delete(expPath(a.Volume), func(error) {
		reply.Reply(nil, nil)
	})
}

// --- Persistence encoding ---

func volPath(id string) string { return "/vol/" + id }
func expPath(id string) string { return "/exp/" + id }

// encodeVol renders a record as "size|service|disk1,disk2,..." into one
// buffer of exactly its length. Volume IDs and services must not contain
// '|' or '/'.
func encodeVol(r VolRecord) []byte {
	var num [20]byte
	size := strconv.AppendInt(num[:0], r.Size, 10)
	n := len(size) + len(r.Service) + 1 + max(len(r.Disks), 1) // two '|' and the commas
	for _, d := range r.Disks {
		n += len(d)
	}
	b := append(append(append(append(make([]byte, 0, n), size...), '|'), r.Service...), '|')
	for i, d := range r.Disks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, d...)
	}
	return b
}

func decodeVol(data []byte) (VolRecord, error) {
	parts := strings.SplitN(string(data), "|", 3)
	if len(parts) != 3 {
		return VolRecord{}, fmt.Errorf("fleet: bad volume record %q", data)
	}
	size, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return VolRecord{}, err
	}
	rec := VolRecord{Size: size, Service: parts[1]}
	if parts[2] != "" {
		rec.Disks = strings.Split(parts[2], ",")
	}
	return rec, nil
}

// encodeFrozen renders the frozen-slot set as "s1,s2,..." (sorted; empty
// string for an empty set).
func encodeFrozen(frozen map[int]bool) []byte {
	slots := make([]int, 0, len(frozen))
	for s := range frozen {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	parts := make([]string, len(slots))
	for i, s := range slots {
		parts[i] = strconv.Itoa(s)
	}
	return []byte(strings.Join(parts, ","))
}

func decodeFrozen(data []byte) []int {
	if len(data) == 0 {
		return nil
	}
	var out []int
	for _, p := range strings.Split(string(data), ",") {
		s, err := strconv.Atoi(p)
		if err != nil || s < 0 || s >= NumSlots {
			continue
		}
		out = append(out, s)
	}
	return out
}

// encodeMap renders "epoch|owner0,owner1,...". Replica sets are static
// topology, so only epoch and slot owners persist.
func encodeMap(m *ShardMap) []byte {
	owners := make([]string, NumSlots)
	for i, o := range m.Slots {
		owners[i] = strconv.Itoa(o)
	}
	return []byte(fmt.Sprintf("%d|%s", m.Epoch, strings.Join(owners, ",")))
}

func decodeMap(data []byte, replicas [][]string) *ShardMap {
	parts := strings.SplitN(string(data), "|", 2)
	if len(parts) != 2 {
		return nil
	}
	epoch, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return nil
	}
	owners := strings.Split(parts[1], ",")
	if len(owners) != NumSlots {
		return nil
	}
	m := &ShardMap{Epoch: epoch}
	for i, o := range owners {
		v, err := strconv.Atoi(o)
		if err != nil {
			return nil
		}
		m.Slots[i] = v
	}
	for _, r := range replicas {
		m.Replicas = append(m.Replicas, append([]string(nil), r...))
	}
	return m
}
