package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"ustore/internal/block"
	"ustore/internal/model"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// ErrNotMounted is returned for IO on a space the ClientLib has not
// mounted.
var ErrNotMounted = errors.New("core: space not mounted")

// MountEvent notifies the upper layer of a mount state change (§IV-D:
// "provides notification call backs to notify the upper layer of disk
// status changes").
type MountEvent struct {
	Space SpaceID
	// Host is the space's (new) serving host.
	Host string
	// Remounted is true when this event is a transparent failover remount
	// rather than the initial mount.
	Remounted bool
}

// mount is the state of one mounted space, and of the one Mount or remount
// attempt in flight on it. Mount builds the record and registers it when its
// first login succeeds; remount reuses it, one attempt at a time
// (remounting). So the record holds the attempt's state and receives its
// steps: its completions are bound once, and its Lookup args are boxed once
// and never written again (CallWithRetry resends them), so an attempt
// allocates nothing.
type mount struct {
	cl         *ClientLib
	space      SpaceID
	host       string
	size       int64
	mounted    bool
	remounting bool

	lookupArgs any    // LookupArgs{Space: space}
	tok        int    // the attempt's history token (OpMount or OpRemount)
	target     string // the host the attempt's Lookup answered
	// A Mount's caller and retry deadline; a remount's caller.
	mountDone   func(error)
	deadline    simtime.Time
	remountDone func(ok bool)
	// m.lookedUp and m.loggedIn, bound once per record.
	onLookup func(LookupReply, error)
	onLogin  func(size int64, err error)
}

// newMount returns an unregistered record for space.
func (cl *ClientLib) newMount(space SpaceID) *mount {
	m := &mount{cl: cl, space: space, lookupArgs: LookupArgs{Space: space}}
	m.onLookup, m.onLogin = m.lookedUp, m.loggedIn
	return m
}

// ClientLib is the client library of §IV-D: storage management calls
// against the Master, a directory lookup, block IO through the initiator,
// and automatic remount when storage moves after a failover.
type ClientLib struct {
	name    string
	service string
	cfg     Config
	sched   *simtime.Scheduler
	rpc     *simnet.RPCNode
	ini     *block.Initiator
	masters []string

	mounts map[SpaceID]*mount
	mit    *Mitigation
	// calls and ios recycle callMaster and IO records.
	calls simtime.FreeList[masterCall]
	ios   simtime.FreeList[clientIO]
	// allocSeq numbers this client's Allocate requests (AllocateArgs.Seq).
	allocSeq uint64

	// OnMount receives mount and remount notifications.
	OnMount func(MountEvent)

	// Remounts counts transparent failover remounts (for experiments).
	Remounts uint64
}

// NewClientLib creates a client named name (its network identity) acting
// for the given service.
func NewClientLib(net *simnet.Network, name, service string, cfg Config, masters []string) *ClientLib {
	cl := &ClientLib{
		name:    name,
		service: service,
		cfg:     cfg,
		sched:   net.Scheduler(),
		rpc:     simnet.NewRPCNode(net, "cl:"+name),
		ini:     block.NewInitiator(net, name),
		masters: masters,
		mounts:  make(map[SpaceID]*mount),
	}
	return cl
}

// callMaster tries the master replicas in order until one accepts (a
// standby refuses with ErrNotActive). Each replica is called with retry so a
// lossy or flapping link doesn't masquerade as a rejected request. Every
// send reaches the master's handler, resends and the move to the next
// replica included, so each method is safe to repeat: Allocate carries its
// request key, which the active master answers from the allocation record,
// and Release, Lookup and DiskPower are idempotent. tok is the history
// token of the op the call completes (-1: none), recorded when it succeeds.
func (cl *ClientLib) callMaster(method string, args any, tok int, done masterDone) {
	c, fresh := cl.calls.Get()
	if fresh {
		c.cl, c.onReply = cl, c.reply
	}
	c.method, c.args, c.tok, c.done = method, args, tok, done
	c.try(nil)
}

// masterDone is a master call's completion, typed by its method, so a call
// builds no closure: the one that is set is the call's kind.
type masterDone struct {
	lookup func(LookupReply, error)
	alloc  func(AllocateReply, error)
	err    func(error) // a Release's or a DiskPower's
}

// masterCall is one callMaster call: the replica it is trying and the
// caller's completion. One replica call is in flight at a time and each
// answers once, so the record is free again once it has answered; it goes
// back before the completion runs, so the completion may reuse it.
type masterCall struct {
	cl      *ClientLib
	method  string
	args    any
	i       int // the replica being tried
	tok     int
	done    masterDone
	onReply func(any, error) // c.reply, bound once per record
}

func (c *masterCall) try(lastErr error) {
	cl := c.cl
	if c.i >= len(cl.masters) {
		c.finish(nil, fmt.Errorf("core: no active master: %v", lastErr))
		return
	}
	retry := simnet.RetryOpts{
		Attempts: 2,
		Timeout:  cl.cfg.RPCTimeout,
		Backoff:  cl.cfg.RPCTimeout / 8,
	}
	cl.rpc.CallWithRetry(cl.masters[c.i], c.method, c.args, 64, retry, c.onReply)
}

func (c *masterCall) reply(res any, err error) {
	switch {
	case err == nil:
		c.finish(res, nil)
	case errors.Is(err, ErrThrottled):
		// The active master deliberately shed this request; retrying
		// against standbys (who would just redirect) or re-sending is
		// exactly the retry amplification overload protection exists
		// to stop. Fail fast to the caller.
		c.finish(nil, err)
	default:
		c.i++
		c.try(err)
	}
}

// finish gives the record back, records the op's return when it
// succeeded, and hands the caller its result.
func (c *masterCall) finish(res any, err error) {
	cl, tok, done := c.cl, c.tok, c.done
	*c = masterCall{cl: cl, onReply: c.onReply}
	cl.calls.Put(c)
	h := cl.cfg.History
	switch {
	case done.lookup != nil:
		lookup := done.lookup
		if err != nil {
			lookup(LookupReply{}, err)
			return
		}
		rep := res.(LookupReply)
		if op := h.Complete(tok); op != nil {
			op.Host, op.Disk, op.Offset, op.Size = rep.Host, rep.DiskID, rep.Offset, rep.Size
		}
		lookup(rep, nil)
	case done.alloc != nil:
		alloc := done.alloc
		if err != nil {
			alloc(AllocateReply{}, err)
			return
		}
		rep := res.(AllocateReply)
		if op := h.Complete(tok); op != nil {
			op.Space, op.Disk, op.Offset, op.Size = string(rep.Space), rep.DiskID, rep.Offset, rep.Size
		}
		alloc(rep, nil)
	default:
		if err == nil {
			h.Complete(tok)
		}
		done.err(err)
	}
}

// Allocate requests size bytes of storage ("applying for new storage
// space", §IV-D) and returns the allocation.
func (cl *ClientLib) Allocate(size int64, done func(AllocateReply, error)) {
	tok := cl.cfg.History.Invoke(model.Op{Kind: model.OpAllocate, Client: cl.name})
	cl.allocSeq++
	args := AllocateArgs{Service: cl.service, Size: size, ClientHost: cl.locality(), Seq: cl.allocSeq}
	cl.callMaster("Allocate", args, tok, masterDone{alloc: done})
}

// locality derives the client's nearest host hint. Clients named after a
// host (e.g. HDFS datanodes co-located on hosts) get that host's disks; the
// longest matching host name wins.
func (cl *ClientLib) locality() string {
	best := ""
	for _, h := range cl.cfg.Fabric.Hosts {
		if strings.HasPrefix(cl.name, h) && len(h) > len(best) {
			best = h
		}
	}
	return best
}

// Release frees an allocation.
func (cl *ClientLib) Release(space SpaceID, done func(error)) {
	delete(cl.mounts, space)
	tok := cl.cfg.History.Invoke(model.Op{Kind: model.OpRelease, Client: cl.name, Space: string(space)})
	cl.callMaster("Release", ReleaseArgs{Space: space}, tok, masterDone{err: done})
}

// Lookup resolves a space's current host (the directory service, §IV-D).
func (cl *ClientLib) Lookup(space SpaceID, done func(LookupReply, error)) {
	cl.lookup(space, LookupArgs{Space: space}, done)
}

// lookup is Lookup with its args boxed by the caller (a mount boxes its
// own once).
func (cl *ClientLib) lookup(space SpaceID, args any, done func(LookupReply, error)) {
	tok := cl.cfg.History.Invoke(model.Op{Kind: model.OpLookup, Client: cl.name, Space: string(space)})
	cl.callMaster("Lookup", args, tok, masterDone{lookup: done})
}

// mountBudget bounds Mount's retries: a freshly allocated space's target
// may still be in iSCSI setup on the host, and a space being failed over
// has no target at all for a few seconds.
const mountBudget = 15 * time.Second

// Mount looks up and logs in to a space, retrying while the export is
// still being set up. After a successful mount, Read and Write retry
// transparently across failovers.
func (cl *ClientLib) Mount(space SpaceID, done func(error)) {
	m := cl.newMount(space)
	m.tok = cl.cfg.History.Invoke(model.Op{Kind: model.OpMount, Client: cl.name, Space: string(space)})
	m.mountDone, m.deadline = done, cl.sched.Now()+mountBudget
	m.attempt()
}

// attempt looks the space up; lookedUp logs in to the host it names.
func (m *mount) attempt() {
	m.cl.lookup(m.space, m.lookupArgs, m.onLookup)
}

// Fire is a Mount's back-off timer: try again.
func (m *mount) Fire() { m.attempt() }

func (m *mount) lookedUp(rep LookupReply, err error) {
	switch {
	case err == nil && rep.Host != "":
		m.target = rep.Host
		m.cl.ini.Login(rep.Host, string(m.space), m.onLogin)
	case m.remounting:
		m.remounted(false)
	case err != nil:
		m.retry(err)
	default:
		m.retry(fmt.Errorf("core: space %s not attached anywhere", m.space))
	}
}

func (m *mount) loggedIn(size int64, err error) {
	switch {
	case err != nil && m.remounting:
		m.remounted(false)
	case err != nil:
		m.retry(err)
	case m.remounting:
		m.host, m.mounted = m.target, true
		m.cl.Remounts++
		m.remounted(true)
	default:
		m.host, m.size, m.mounted = m.target, size, true
		m.cl.mounts[m.space] = m
		m.returned(false)
		done := m.mountDone
		m.mountDone = nil
		done(nil)
	}
}

// returned records the attempt's op and notifies the upper layer.
func (m *mount) returned(remounted bool) {
	if op := m.cl.cfg.History.Complete(m.tok); op != nil {
		op.Host = m.host
	}
	if m.cl.OnMount != nil {
		m.cl.OnMount(MountEvent{Space: m.space, Host: m.host, Remounted: remounted})
	}
}

// retry fails a Mount attempt: try again after a back-off, or give up with
// cause past the deadline.
func (m *mount) retry(cause error) {
	if m.cl.sched.Now() >= m.deadline {
		done := m.mountDone
		m.mountDone = nil
		done(cause)
		return
	}
	m.cl.sched.FireAfterR(retryBackoff, m)
}

// MountedOn returns the host a space is currently mounted from ("" if not
// mounted).
func (cl *ClientLib) MountedOn(space SpaceID) string {
	if m, ok := cl.mounts[space]; ok && m.mounted {
		return m.host
	}
	return ""
}

// Read reads from a mounted space, remounting and retrying on failure
// until the deadline (default: 30s of retries — "temporary high latency",
// §IV-D).
//
// data is the payload of the block response's wire frame and is valid only
// until done returns; the frame then carries another read. A done that keeps
// the bytes (stores them, hands them to a write or an RPC reply) copies them.
func (cl *ClientLib) Read(space SpaceID, off int64, length int, done func([]byte, error)) {
	cl.ReadWithBudget(space, off, length, retryBudget, done)
}

// ReadWithBudget is Read with an explicit retry budget. Redundancy-aware
// callers (e.g. an erasure-coded store that can reconstruct from parity)
// use short budgets so a missing shard fails fast instead of riding out a
// full failover. As with Read, data is valid only until done returns.
func (cl *ClientLib) ReadWithBudget(space SpaceID, off int64, length int, budget time.Duration, done func([]byte, error)) {
	cl.read(space, off, length, budget, false, done)
}

// ReadDiscard is ReadWithBudget for a caller that only times its reads
// (block.Initiator.ReadDiscard): every check runs and every byte is timed
// on the wire, but done's data is empty.
func (cl *ClientLib) ReadDiscard(space SpaceID, off int64, length int, budget time.Duration, done func([]byte, error)) {
	cl.read(space, off, length, budget, true, done)
}

func (cl *ClientLib) read(space SpaceID, off int64, length int, budget time.Duration, discard bool, done func([]byte, error)) {
	io := cl.newIO(space, budget)
	if io == nil {
		cl.sched.FireAfter(0, func() { done(nil, fmt.Errorf("%w: %s", ErrNotMounted, space)) })
		return
	}
	io.off, io.length, io.discard, io.done = off, length, discard, done
	io.attempt()
}

// Write writes to a mounted space with the same retry semantics as Read.
// Each attempt copies data into its own request frame, so the wire never
// aliases it; but a retry sends data again, so it must stay unchanged until
// done runs.
func (cl *ClientLib) Write(space SpaceID, off int64, data []byte, done func(error)) {
	io := cl.newIO(space, retryBudget)
	if io == nil {
		cl.sched.FireAfter(0, func() { done(fmt.Errorf("%w: %s", ErrNotMounted, space)) })
		return
	}
	io.off, io.data, io.write, io.wdone = off, data, true, done
	io.attempt()
}

// retryBudget bounds how long IO retries across remounts before giving up.
const retryBudget = 30 * time.Second

// retryBackoff is how long a Mount, or an IO whose remount failed, waits
// before trying again (the Master may not have completed failover yet).
const retryBackoff = 300 * time.Millisecond

// clientIO is one Read or Write: its retry loop's state — run the op
// against the space's mount, remount and retry on error until the budget
// is exhausted — and the receiver of each step. refs counts the callbacks
// still to come (the block op's, the remount's, the back-off timer's); the
// last one gives the record back to ClientLib.ios, after the caller's done
// has returned. done (a read's) or wdone (a write's, when write is set)
// runs exactly once.
type clientIO struct {
	cl       *ClientLib
	m        *mount
	off      int64
	length   int
	data     []byte // a write's payload
	discard  bool
	write    bool // a Write: send data, and report to wdone
	deadline simtime.Time
	done     func([]byte, error)
	wdone    func(error)
	finished bool
	refs     int
	// The op's and the remount's completions, bound once per record.
	onRead    func([]byte, error)
	onWrite   func(error)
	onRemount func(ok bool)
}

// newIO returns an IO record for space with its deadline set, or nil when
// the space is not mounted.
func (cl *ClientLib) newIO(space SpaceID, budget time.Duration) *clientIO {
	m, ok := cl.mounts[space]
	if !ok {
		return nil
	}
	io, fresh := cl.ios.Get()
	if fresh {
		io.cl = cl
		io.onRead, io.onWrite, io.onRemount = io.read, io.wrote, io.remounted
	}
	io.m, io.deadline = m, cl.sched.Now()+budget
	return io
}

// attempt sends the op to the mount's current host.
func (io *clientIO) attempt() {
	cl, m := io.cl, io.m
	io.refs++
	switch {
	case io.write:
		cl.ini.Write(m.host, string(m.space), io.off, io.data, io.onWrite)
	case io.discard:
		cl.ini.ReadDiscard(m.host, string(m.space), io.off, io.length, io.onRead)
	default:
		cl.ini.Read(m.host, string(m.space), io.off, io.length, io.onRead)
	}
}

func (io *clientIO) read(data []byte, err error) {
	if err != nil {
		io.failed(err)
	} else {
		io.finish(data, nil)
	}
	io.unref()
}

func (io *clientIO) wrote(err error) {
	if err != nil {
		io.failed(err)
	} else {
		io.finish(nil, nil)
	}
	io.unref()
}

// failed handles an attempt's error: give up past the deadline, else
// consult the Master and remount ("retrieve the new host IP from the
// Master and remount the storage automatically", §IV-D).
func (io *clientIO) failed(err error) {
	if io.cl.sched.Now() >= io.deadline {
		io.finish(nil, fmt.Errorf("core: giving up on %s: %w", io.m.space, err))
		return
	}
	io.refs++
	io.cl.remount(io.m, io.onRemount)
}

func (io *clientIO) remounted(ok bool) {
	if ok {
		io.attempt()
	} else {
		io.refs++
		io.cl.sched.FireAfterR(retryBackoff, io)
	}
	io.unref()
}

// Fire is the back-off timer: retry the op.
func (io *clientIO) Fire() {
	io.attempt()
	io.unref()
}

func (io *clientIO) finish(data []byte, err error) {
	if io.finished {
		panic("core: a client IO finished twice")
	}
	io.finished = true
	if io.write {
		io.wdone(err)
	} else {
		io.done(data, err)
	}
}

// unref drops one expected callback and recycles the record after the last.
func (io *clientIO) unref() {
	if io.refs--; io.refs > 0 {
		return
	}
	io.m, io.data, io.done, io.wdone = nil, nil, nil, nil
	io.discard, io.write, io.finished = false, false, false
	io.cl.ios.Put(io)
}

// remount re-resolves the space and logs in at its new host; done reports
// whether it did. It fails at once while another remount of the space is
// in progress.
func (cl *ClientLib) remount(m *mount, done func(ok bool)) {
	if m.remounting {
		done(false)
		return
	}
	m.remounting, m.remountDone = true, done
	// Recorded per attempt (after the in-progress guard, so the steady
	// 300ms retry loop doesn't flood the history with guard bounces);
	// failed attempts stay pending and the checker drops them.
	m.tok = cl.cfg.History.Invoke(model.Op{Kind: model.OpRemount, Client: cl.name, Space: string(m.space)})
	m.attempt()
}

// remounted ends the remount attempt and tells its caller whether it
// remounted.
func (m *mount) remounted(ok bool) {
	m.remounting = false
	if ok {
		m.returned(true)
	}
	done := m.remountDone
	m.remountDone = nil
	done(ok)
}

// SetDiskPower asks the Master to spin the service's disk up or down
// (§IV-F's interface for services that know their workload).
func (cl *ClientLib) SetDiskPower(diskID string, up bool, done func(error)) {
	cl.callMaster("DiskPower", DiskPowerArgs{Service: cl.service, DiskID: diskID, Up: up}, -1, masterDone{err: done})
}
