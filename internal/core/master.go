package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"ustore/internal/coord"
	"ustore/internal/fabric"
	"ustore/internal/obs"
	"ustore/internal/placement"
	"ustore/internal/policy"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// Errors returned by the Master API.
var (
	// ErrNotActive is returned by a standby master replica.
	ErrNotActive = errors.New("core: not the active master")
	// ErrNoSpace is returned when no disk can satisfy an allocation.
	ErrNoSpace = errors.New("core: no space available")
	// ErrUnknownSpace is returned for lookups of unallocated spaces.
	ErrUnknownSpace = errors.New("core: unknown space")
	// ErrNotOwner is returned when a service manipulates another
	// service's disk.
	ErrNotOwner = errors.New("core: disk not owned by service")
	// ErrThrottled is returned when a caller exceeds the Master's
	// per-caller metadata-RPC rate (Config.Protection). Clients must not
	// retry a throttled request against other replicas — see
	// ClientLib.callMaster's short-circuit.
	ErrThrottled = errors.New("core: request throttled")
)

// allocRecord is the persistent StorAlloc entry, JSON-encoded into coord.
type allocRecord struct {
	Space   SpaceID `json:"space"`
	Service string  `json:"service"`
	DiskID  string  `json:"disk"`
	Offset  int64   `json:"offset"`
	Size    int64   `json:"size"`
}

// hostStat is SysStat's per-host record (in-memory only, §IV-A).
type hostStat struct {
	lastSeen  simtime.Time
	lastSeq   uint64
	online    bool
	diskState map[string]DiskState
}

// Master is one replica of the UStore Master. It is co-deployed with a
// coord.Store replica (§V-B); the replica winning the coord election is the
// active master, the rest are standbys that redirect.
type Master struct {
	name  string
	cfg   Config
	sched *simtime.Scheduler
	rpc   *simnet.RPCNode
	store *coord.Store
	elect *coord.Election

	// SysStat (in-memory; rebuilt from heartbeats after failover).
	hosts map[string]*hostStat
	// diskHost is the current disk->host attachment per heartbeats.
	diskHost map[string]string

	// StorAlloc cache (authoritative copy lives in coord znodes).
	allocs map[SpaceID]*allocRecord
	// diskAllocs indexes allocations and owning service per disk.
	diskAllocs map[string][]*allocRecord
	diskOwner  map[string]string
	nextSpace  uint64

	// Failover bookkeeping.
	failingOver map[string]bool // hosts currently being failed over
	// controllers are the unit's two Controller RPC nodes, primary first
	// (SysConf; the unit's hosts are cfg.Fabric.Hosts).
	controllers []string
	// diskGroup maps a disk to its co-moving group (SysConf topology
	// knowledge; disks in one group must target the same host).
	diskGroup map[string]int

	// exported tracks which spaces each host was told to export.
	exported map[SpaceID]string

	// health is the gray-failure detector's state (see health.go).
	health *healthTracker

	// limiters are the per-caller metadata-RPC token buckets, armed by
	// Config.Protection (nil map = throttling off). Heartbeats are never
	// throttled — starving failure detection to shed load would turn an
	// overload into a false host death.
	limiters    map[string]*policy.TokenBucket
	limiterPool *policy.BucketPool
	cThrottled  *obs.Counter

	// OnHostDead fires when failure detection declares a host dead.
	OnHostDead func(host string)
	// OnFailoverDone fires when a dead host's disks are re-homed and
	// re-exported.
	OnFailoverDone func(host string, took time.Duration)
	// OnDiskQuarantined fires when the gray-failure detector quarantines a
	// disk (host is its current attachment, "" if unknown). The harness
	// uses it to start proactive migration off the gray disk.
	OnDiskQuarantined func(diskID, host string)
	// OnDiskReleased fires when a quarantined disk completes probation.
	OnDiskReleased func(diskID string)
}

// masterNode returns the RPC node name of a master replica.
func masterNode(name string) string { return "master:" + name }

// NewMaster creates replica name, co-located with store.
func NewMaster(net *simnet.Network, name string, store *coord.Store, cfg Config, controllers []string) *Master {
	m := &Master{
		name:        name,
		cfg:         cfg,
		sched:       net.Scheduler(),
		rpc:         simnet.NewRPCNode(net, masterNode(name)),
		store:       store,
		hosts:       make(map[string]*hostStat),
		diskHost:    make(map[string]string),
		allocs:      make(map[SpaceID]*allocRecord),
		diskAllocs:  make(map[string][]*allocRecord),
		diskOwner:   make(map[string]string),
		failingOver: make(map[string]bool),
		controllers: controllers,
		diskGroup:   make(map[string]int),
		exported:    make(map[SpaceID]string),
		health:      newHealthTracker(cfg.Recorder),
	}
	if cfg.Protection != nil {
		m.limiters = make(map[string]*policy.TokenBucket)
		m.limiterPool = policy.NewBucketPool(masterRate, masterBurst)
		m.cThrottled = cfg.Recorder.Counter("core", "master_throttled_total")
	}
	m.elect = coord.NewElection(store, "/master/active", name, cfg.ElectionTTL)
	m.elect.OnElected = m.onElected
	m.rpc.Register("Heartbeat", m.handleHeartbeat)
	m.rpc.Register("Allocate", m.handleAllocate)
	m.rpc.Register("Release", m.handleRelease)
	m.rpc.Register("Lookup", m.handleLookup)
	m.rpc.Register("DiskPower", m.handleDiskPower)
	m.elect.Run()
	m.detectLoop()
	return m
}

// Name returns the replica name.
func (m *Master) Name() string { return m.name }

// Active reports whether this replica is the active master.
func (m *Master) Active() bool { return m.elect.Leading() }

// onElected rebuilds StorAlloc from coord when this replica becomes active
// (SysStat rebuilds itself from incoming heartbeats), and the space counter
// past every recovered space, so no space ID is handed out twice.
func (m *Master) onElected() {
	m.cfg.Recorder.Counter("core", "elections_total").Inc()
	m.cfg.Recorder.Instant("core", "elected", "master", obs.L("replica", m.name))
	m.allocs = make(map[SpaceID]*allocRecord)
	m.diskAllocs = make(map[string][]*allocRecord)
	m.diskOwner = make(map[string]string)
	m.exported = make(map[SpaceID]string)
	disks, err := m.store.Children("/alloc")
	if err != nil {
		return // nothing allocated yet
	}
	for _, d := range disks {
		spaces, err := m.store.Children("/alloc/" + d)
		if err != nil {
			continue
		}
		for _, sp := range spaces {
			data, err := m.store.Get("/alloc/" + d + "/" + sp)
			if err != nil {
				continue
			}
			var rec allocRecord
			if json.Unmarshal(data, &rec) != nil {
				continue
			}
			m.indexAlloc(&rec)
			if seq, err := strconv.ParseUint(strings.TrimPrefix(sp, "sp"), 10, 64); err == nil {
				m.nextSpace = max(m.nextSpace, seq)
			}
		}
	}
	// Ask every online host to (re-)export what it should be serving.
	m.sched.After(0, m.reconcileExports)
}

func (m *Master) indexAlloc(rec *allocRecord) {
	m.allocs[rec.Space] = rec
	m.diskAllocs[rec.DiskID] = append(m.diskAllocs[rec.DiskID], rec)
	m.diskOwner[rec.DiskID] = rec.Service
}

// --- Heartbeats & failure detection (§IV-E) ---

func (m *Master) handleHeartbeat(from string, args any) (any, error) {
	hb := args.(HeartbeatArgs)
	if !m.Active() {
		return HeartbeatReply{Active: false, ActiveHint: m.elect.Leader()}, nil
	}
	hs := m.hosts[hb.Host]
	if hs == nil {
		hs = &hostStat{diskState: make(map[string]DiskState)}
		m.hosts[hb.Host] = hs
	}
	if hb.Seq < hs.lastSeq {
		return HeartbeatReply{Active: true}, nil // stale duplicate
	}
	hs.lastSeq = hb.Seq
	hs.lastSeen = m.sched.Now()
	wasOffline := !hs.online
	hs.online = true
	delete(m.failingOver, hb.Host)

	// Update disk->host mapping; detect disks that appeared here.
	var appeared []string
	seen := make(map[string]bool, len(hb.Disks))
	for _, di := range hb.Disks {
		seen[di.ID] = true
		hs.diskState[di.ID] = di.State
		if m.cfg.HealthQuarantine {
			m.health.observe(di.ID, di.Health)
		}
		if m.diskHost[di.ID] != hb.Host {
			m.diskHost[di.ID] = hb.Host
			appeared = append(appeared, di.ID)
		}
	}
	for id := range hs.diskState {
		if !seen[id] {
			delete(hs.diskState, id)
			if m.diskHost[id] == hb.Host {
				delete(m.diskHost, id)
			}
			// The EndPoint revoked this disk's exports when it detached;
			// forget them here too, or a later reappearance on the same
			// host would skip re-export and strand the spaces.
			for _, rec := range m.diskAllocs[id] {
				if m.exported[rec.Space] == hb.Host {
					delete(m.exported, rec.Space)
				}
			}
		}
	}
	if wasOffline || len(appeared) > 0 {
		m.exportDisksOn(hb.Host, appeared)
	}
	return HeartbeatReply{Active: true}, nil
}

// exportDisksOn sends export commands for the allocations living on the
// given disks (now visible on host).
func (m *Master) exportDisksOn(host string, diskIDs []string) {
	for _, id := range diskIDs {
		for _, rec := range m.diskAllocs[id] {
			rec := rec
			if m.exported[rec.Space] == host {
				continue
			}
			m.exported[rec.Space] = host
			m.rpc.Call(endpointNode(host), "Export",
				ExportArgs{Space: rec.Space, DiskID: rec.DiskID, Offset: rec.Offset, Size: rec.Size},
				128, m.cfg.RPCTimeout, func(any, error) {})
		}
	}
}

// reconcileExports re-issues exports for every known attachment (used after
// master failover, when the exported map is cold).
func (m *Master) reconcileExports() {
	if !m.Active() {
		return
	}
	byHost := make(map[string][]string)
	hosts := make([]string, 0, len(byHost))
	for diskID, host := range m.diskHost {
		if len(byHost[host]) == 0 {
			hosts = append(hosts, host)
		}
		byHost[host] = append(byHost[host], diskID)
	}
	sort.Strings(hosts)
	for _, host := range hosts {
		disks := byHost[host]
		sort.Strings(disks)
		m.exportDisksOn(host, disks)
	}
}

// detectLoop scans for hosts whose heartbeats stopped.
func (m *Master) detectLoop() {
	m.sched.After(m.cfg.HeartbeatInterval, func() {
		if m.Active() {
			deadline := time.Duration(hostDeadAfter) * m.cfg.HeartbeatInterval
			hosts := make([]string, 0, len(m.hosts))
			for host := range m.hosts {
				hosts = append(hosts, host)
			}
			sort.Strings(hosts)
			for _, host := range hosts {
				if hs := m.hosts[host]; hs.online && m.sched.Now()-hs.lastSeen > deadline {
					hs.online = false
					m.hostDead(host)
				}
			}
			m.scorePass()
		}
		m.detectLoop()
	})
}

// hostDead re-homes every disk of a dead host onto the surviving hosts
// ("move the disks on this host to a non-faulty one", §IV-E).
func (m *Master) hostDead(host string) {
	if m.failingOver[host] {
		return
	}
	m.failingOver[host] = true
	started := m.sched.Now()
	rec := m.cfg.Recorder
	rec.Counter("core", "host_deaths_total").Inc()
	rec.Instant("core", "host-dead", "master", obs.L("host", host))
	span := rec.Begin("core", "failover", "master", obs.L("host", host))
	if m.OnHostDead != nil {
		m.OnHostDead(host)
	}
	var moving []string
	for diskID, h := range m.diskHost {
		if h == host {
			moving = append(moving, diskID)
		}
	}
	sort.Strings(moving)
	if len(moving) == 0 {
		span.End(obs.L("status", "no-disks"))
		return
	}
	// Spread the disks over the unit's other online hosts, least-loaded
	// first, keeping co-moving fabric groups together (a forced command
	// spreading one leaf-hub group across hosts would contradict itself).
	targets := m.onlineHostsByLoad(host)
	if len(targets) == 0 {
		span.End(obs.L("status", "no-targets"))
		return // nothing alive to move to; retry on next detection pass
	}
	groupTarget := make(map[int]string)
	nextTarget := 0
	pairs := make([]fabric.DiskHost, len(moving))
	for i, diskID := range moving {
		gid, grouped := m.diskGroup[diskID]
		var tgt string
		if grouped {
			if t, ok := groupTarget[gid]; ok {
				tgt = t
			} else {
				tgt = targets[nextTarget%len(targets)]
				nextTarget++
				groupTarget[gid] = tgt
			}
		} else {
			tgt = targets[nextTarget%len(targets)]
			nextTarget++
		}
		pairs[i] = fabric.DiskHost{Disk: fabric.NodeID(diskID), Host: tgt}
	}
	// Mark the moved spaces unexported so the receiving host's heartbeat
	// triggers fresh exports.
	for _, diskID := range moving {
		for _, rec := range m.diskAllocs[diskID] {
			delete(m.exported, rec.Space)
		}
	}
	host0 := host
	// Prefer a controller whose host SysStat believes alive: when the dead
	// host also ran the primary Controller, go straight to the backup
	// instead of burning an RPC timeout (§IV-C primary/backup).
	first := m.pickController()
	m.executeOnController(first, ExecuteArgs{Pairs: pairs, Force: true}, func(err error) {
		if err != nil {
			// Retry once through the other controller.
			m.executeOnController(1-first, ExecuteArgs{Pairs: pairs, Force: true}, func(err2 error) {
				if err2 == nil {
					m.watchFailoverDone(host0, moving, started, span)
				} else {
					span.End(obs.L("status", "controllers-unreachable"))
				}
			})
			return
		}
		m.watchFailoverDone(host0, moving, started, span)
	})
}

// pickController returns the index of the first controller whose host is
// online per SysStat (0 when both or neither are).
func (m *Master) pickController() int {
	for i, ctl := range m.controllers {
		host := ctl[len("ctl:"):]
		if hs := m.hosts[host]; hs != nil && hs.online {
			return i
		}
	}
	return 0
}

// watchFailoverDone polls SysStat until every moved disk reports on a live
// host and its spaces are exported, then fires OnFailoverDone.
func (m *Master) watchFailoverDone(host string, moving []string, started simtime.Time, span *obs.Span) {
	var poll func()
	poll = func() {
		done := true
		for _, diskID := range moving {
			h, ok := m.diskHost[diskID]
			if !ok || h == host {
				done = false
				break
			}
			for _, rec := range m.diskAllocs[diskID] {
				if m.exported[rec.Space] == "" {
					done = false
					break
				}
			}
		}
		if done {
			took := m.sched.Now() - started
			m.cfg.Recorder.Counter("core", "failovers_total").Inc()
			m.cfg.Recorder.Histogram("core", "failover_seconds").ObserveDuration(took)
			span.End(obs.L("status", "ok"))
			if m.OnFailoverDone != nil {
				m.OnFailoverDone(host, took)
			}
			return
		}
		m.sched.After(100*time.Millisecond, poll)
	}
	poll()
}

// onlineHostsByLoad returns the unit's live hosts (excluding skip), least
// disks first.
func (m *Master) onlineHostsByLoad(skip string) []string {
	load := make(map[string]int)
	for _, host := range m.cfg.Fabric.Hosts {
		if host == skip {
			continue
		}
		if hs := m.hosts[host]; hs != nil && hs.online {
			load[host] = 0
		}
	}
	for _, h := range m.diskHost {
		if _, ok := load[h]; ok {
			load[h]++
		}
	}
	out := make([]string, 0, len(load))
	for h := range load {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if load[out[i]] != load[out[j]] {
			return load[out[i]] < load[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// executeOnController sends a topology command to the idx-th controller.
func (m *Master) executeOnController(idx int, args ExecuteArgs, done func(error)) {
	m.rpc.Call(m.controllers[idx], "Execute", args, 256, verifyTimeout+time.Second,
		func(_ any, err error) { done(err) })
}

// throttled charges one metadata RPC against the caller's token bucket
// and reports whether it must be rejected. Only armed by
// Config.Protection; buckets are per caller node
// (one tenant's storm cannot spend another's tokens).
func (m *Master) throttled(from string) bool {
	if m.limiters == nil {
		return false
	}
	tb := m.limiters[from]
	if tb == nil {
		tb = m.limiterPool.Get()
		m.limiters[from] = tb
	}
	if tb.Allow(m.sched.Now()) {
		return false
	}
	m.cThrottled.Inc()
	return true
}

// --- Allocation (§IV-A) ---

func (m *Master) handleAllocate(from string, args any) (any, error) {
	if !m.Active() {
		return nil, ErrNotActive
	}
	if m.throttled(from) {
		return nil, ErrThrottled
	}
	a := args.(AllocateArgs)
	if a.Size <= 0 {
		return nil, fmt.Errorf("core: allocation size %d", a.Size)
	}
	rec2 := m.cfg.Recorder
	started := m.sched.Now()
	span := rec2.Begin("core", "allocate", "master", obs.L("service", a.Service))
	diskID := m.pickDisk(a)
	if diskID == "" {
		rec2.Counter("core", "alloc_errors_total").Inc()
		span.End(obs.L("status", "no-space"))
		return nil, ErrNoSpace
	}
	if m.health.excluded(diskID) {
		// pickDisk skips quarantined disks; should it ever not, record the
		// breach so ValidateQuarantine (and the chaos invariant) trips.
		m.health.violations = append(m.health.violations,
			fmt.Sprintf("%s (service %s, state %s)", diskID, a.Service, m.DiskHealthState(diskID)))
	}
	offset := int64(0)
	for _, rec := range m.diskAllocs[diskID] {
		if end := rec.Offset + rec.Size; end > offset {
			offset = end
		}
	}
	m.nextSpace++
	space := SpaceID(fmt.Sprintf("%s/%s/sp%d", unitID, diskID, m.nextSpace))
	rec := &allocRecord{Space: space, Service: a.Service, DiskID: diskID, Offset: offset, Size: a.Size}
	m.indexAlloc(rec)
	// Persist synchronously to coord ("stored persistently in the Master
	// synchronously"); export after commit.
	data, _ := json.Marshal(rec)
	m.ensurePath("/alloc/" + diskID)
	m.store.Create("/alloc/"+diskID+"/"+spaceLeaf(space), data, "", func(err error) {
		if err != nil {
			rec2.Counter("core", "alloc_errors_total").Inc()
			span.End(obs.L("status", "persist-failed"))
			return
		}
		// Allocation latency covers pickDisk through the synchronous
		// coord commit (the client-visible critical path).
		rec2.Counter("core", "allocs_total").Inc()
		rec2.Histogram("core", "alloc_seconds").ObserveDuration(m.sched.Now() - started)
		span.End(obs.L("status", "ok"), obs.L("disk", diskID))
		if host, ok := m.diskHost[diskID]; ok {
			m.exported[space] = host
			m.rpc.Call(endpointNode(host), "Export",
				ExportArgs{Space: space, DiskID: diskID, Offset: offset, Size: a.Size},
				128, m.cfg.RPCTimeout, func(any, error) {})
		}
	})
	host := m.diskHost[diskID]
	return AllocateReply{Space: space, DiskID: diskID, Host: host, Offset: offset, Size: a.Size}, nil
}

// pickDisk builds the candidate views SysStat allows (online host, not
// powered off, not quarantined, enough room) and delegates the §IV-A
// allocation rules — same-service affinity, then client locality, then any
// unowned disk — to placement.PickSingle.
func (m *Master) pickDisk(a AllocateArgs) string {
	free := func(diskID string) int64 {
		used := int64(0)
		for _, rec := range m.diskAllocs[diskID] {
			if end := rec.Offset + rec.Size; end > used {
				used = end
			}
		}
		return diskParams.CapacityBytes - used
	}
	var candidates []placement.DiskView
	for diskID, host := range m.diskHost {
		hs := m.hosts[host]
		if hs == nil || !hs.online {
			continue
		}
		if hs.diskState[diskID] == DiskPoweredOff {
			continue
		}
		if m.health.excluded(diskID) {
			continue
		}
		f := free(diskID)
		if f < a.Size {
			continue
		}
		candidates = append(candidates, placement.DiskView{
			ID:    diskID,
			Host:  host,
			Owner: m.diskOwner[diskID],
			Free:  f,
		})
	}
	placement.SortViews(candidates)
	return placement.PickSingle(candidates, a.Service, a.ClientHost)
}

func (m *Master) ensurePath(path string) {
	// Fire-and-forget creates; ErrExists replies are fine.
	m.store.Create("/alloc", nil, "", nil)
	m.store.Create(path, nil, "", nil)
}

func spaceLeaf(space SpaceID) string {
	s := string(space)
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return s[i+1:]
		}
	}
	return s
}

func (m *Master) handleRelease(from string, args any) (any, error) {
	if !m.Active() {
		return nil, ErrNotActive
	}
	if m.throttled(from) {
		return nil, ErrThrottled
	}
	r := args.(ReleaseArgs)
	rec, ok := m.allocs[r.Space]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSpace, r.Space)
	}
	delete(m.allocs, r.Space)
	recs := m.diskAllocs[rec.DiskID][:0]
	for _, other := range m.diskAllocs[rec.DiskID] {
		if other.Space != r.Space {
			recs = append(recs, other)
		}
	}
	m.diskAllocs[rec.DiskID] = recs
	if len(recs) == 0 {
		delete(m.diskOwner, rec.DiskID)
	}
	if host, ok := m.exported[r.Space]; ok {
		delete(m.exported, r.Space)
		m.rpc.Call(endpointNode(host), "Unexport", UnexportArgs{Space: r.Space},
			64, m.cfg.RPCTimeout, func(any, error) {})
	}
	m.store.Delete("/alloc/"+rec.DiskID+"/"+spaceLeaf(r.Space), nil)
	return struct{}{}, nil
}

func (m *Master) handleLookup(from string, args any) (any, error) {
	if !m.Active() {
		return nil, ErrNotActive
	}
	if m.throttled(from) {
		return nil, ErrThrottled
	}
	l := args.(LookupArgs)
	rec, ok := m.allocs[l.Space]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSpace, l.Space)
	}
	host, attached := m.diskHost[rec.DiskID]
	state := DiskMissing
	if attached {
		if hs := m.hosts[host]; hs != nil {
			state = hs.diskState[rec.DiskID]
		}
	}
	return LookupReply{Host: host, DiskID: rec.DiskID, Offset: rec.Offset, Size: rec.Size, State: state}, nil
}

// handleDiskPower lets the owning service spin its disks up or down
// (§IV-F's disk management interface).
func (m *Master) handleDiskPower(from string, args any) (any, error) {
	if !m.Active() {
		return nil, ErrNotActive
	}
	if m.throttled(from) {
		return nil, ErrThrottled
	}
	p := args.(DiskPowerArgs)
	if owner := m.diskOwner[p.DiskID]; owner != p.Service {
		return nil, fmt.Errorf("%w: %s owned by %q", ErrNotOwner, p.DiskID, owner)
	}
	host, ok := m.diskHost[p.DiskID]
	if !ok {
		return nil, fmt.Errorf("core: disk %s not attached", p.DiskID)
	}
	m.rpc.Call(endpointNode(host), "DiskPower", p, 64, m.cfg.RPCTimeout, func(any, error) {})
	return struct{}{}, nil
}

// ExecuteTopology sends an explicit topology scheduling command to the
// owning unit's Controller (§IV-C: "connect disk A to host H1 and disk C
// to host H2"), e.g. for deliberate re-balancing or rebuild offload. The
// unit is derived from the command's target hosts; the command goes to the
// controller whose host is alive, falling back to the other.
func (m *Master) ExecuteTopology(cmd ExecuteArgs, done func(error)) {
	if len(cmd.Pairs) == 0 {
		done(nil)
		return
	}
	first := m.pickController()
	m.executeOnController(first, cmd, func(err error) {
		if err == nil {
			done(nil)
			return
		}
		m.executeOnController(1-first, cmd, done)
	})
}

// SetDiskGroups installs the fabric's co-moving disk groups (SysConf).
func (m *Master) SetDiskGroups(groups [][]fabric.NodeID) {
	m.diskGroup = make(map[string]int)
	for gid, group := range groups {
		for _, d := range group {
			m.diskGroup[string(d)] = gid
		}
	}
}

// ValidateAllocations checks StorAlloc's core invariant: no two records on
// one disk overlap, and every record fits the disk. The chaos harness calls
// it continuously; a violation means the allocator double-assigned extents.
func (m *Master) ValidateAllocations() error {
	disks := make([]string, 0, len(m.diskAllocs))
	for d := range m.diskAllocs {
		disks = append(disks, d)
	}
	sort.Strings(disks)
	for _, d := range disks {
		recs := append([]*allocRecord(nil), m.diskAllocs[d]...)
		sort.Slice(recs, func(i, j int) bool { return recs[i].Offset < recs[j].Offset })
		prevEnd := int64(0)
		var prev SpaceID
		for _, rec := range recs {
			if rec.Size <= 0 || rec.Offset < 0 {
				return fmt.Errorf("core: alloc %s on %s has bad extent [%d,+%d)", rec.Space, d, rec.Offset, rec.Size)
			}
			if rec.Offset+rec.Size > diskParams.CapacityBytes {
				return fmt.Errorf("core: alloc %s on %s exceeds capacity", rec.Space, d)
			}
			if rec.Offset < prevEnd {
				return fmt.Errorf("core: allocs %s and %s overlap on %s ([%d,+%d) vs end %d)",
					prev, rec.Space, d, rec.Offset, rec.Size, prevEnd)
			}
			prevEnd = rec.Offset + rec.Size
			prev = rec.Space
		}
	}
	return nil
}

// DiskHost exposes the current disk->host mapping.
func (m *Master) DiskHost(diskID string) string { return m.diskHost[diskID] }
