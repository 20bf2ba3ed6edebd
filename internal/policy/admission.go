package policy

import (
	"fmt"
	"sort"

	"ustore/internal/simtime"
)

// Admission is a bounded-queue, priority-ordered admission controller in
// front of a set of serving resources (disks). Each request names its
// class and the resource it needs; the controller grants it when the
// resource is ready (spinning) and under its concurrency cap, queues it
// while not, and sheds it when the class queue is full on arrival or the
// request outlives its class deadline.
//
// State machine per request:
//
//	Submit ──(queue full)──────────────▶ shed(queue-full)
//	Submit ─▶ queued ──(slot + ready)──▶ granted ─▶ ... ─▶ Release
//	              └────(MaxWait passes)─▶ shed(deadline)
//
// Dispatch runs on every Submit/Release/SetReady/Poll: classes in
// priority order, each class FIFO, skipping (not blocking on) requests
// whose resource is cold or saturated, so one spun-down disk never
// head-of-line-blocks a whole class. Callbacks are invoked only after
// queue surgery finishes, so a grant callback may synchronously Submit or
// Release without corrupting the walk.
type Admission struct {
	classes []*classState // sorted by (Priority, config order)
	byName  map[string]*classState
	res     map[string]*resourceState
	slotCap int

	// requests recycles request records; fire is dispatch's reused list
	// of the requests one walk took out.
	requests simtime.FreeList[request]
	fire     []*request

	dispatching bool
	dirty       bool
}

type classState struct {
	cfg   ClassConfig
	queue []*request

	// shedFull and shedLate count requests shed on a full queue and past
	// their deadline.
	shedFull, shedLate uint64
}

type resourceState struct {
	ready    bool
	inflight int
	queued   int // requests waiting for this resource, across classes
}

// request is one queued submission. Requests are recycled through
// Admission.requests once their outcome's callback has been read out.
type request struct {
	res      *resourceState
	enqueued simtime.Time
	grant    func()
	shed     func(ShedReason)
	granted  bool // set when dispatch grants it; otherwise it was shed
}

// NewAdmission builds a controller over the given classes. slotCap is the
// per-resource concurrency cap (how many granted requests may be in
// flight against one resource; disks serve one IO at a time, so 1 keeps
// disk queues empty and the backlog where the shedder can see it).
// Resources start not-ready; SetReady flips them.
func NewAdmission(classes []ClassConfig, slotCap int) *Admission {
	if slotCap <= 0 {
		slotCap = 1
	}
	a := &Admission{
		byName:  make(map[string]*classState, len(classes)),
		res:     make(map[string]*resourceState),
		slotCap: slotCap,
	}
	for _, cfg := range classes {
		cs := &classState{cfg: cfg}
		a.classes = append(a.classes, cs)
		a.byName[cfg.Name] = cs
	}
	sort.SliceStable(a.classes, func(i, j int) bool {
		return a.classes[i].cfg.Priority < a.classes[j].cfg.Priority
	})
	return a
}

func (a *Admission) resource(name string) *resourceState {
	rs, ok := a.res[name]
	if !ok {
		rs = &resourceState{}
		a.res[name] = rs
	}
	return rs
}

// SetReady marks a resource able (or unable) to accept grants — the
// autoscaler flips this as disks spin up and down. Turning a resource
// ready dispatches its backlog.
func (a *Admission) SetReady(now simtime.Time, name string, ready bool) {
	a.resource(name).ready = ready
	a.dispatch(now)
}

// Submit offers one request. Exactly one of grant or shed is eventually
// called, once (possibly synchronously, after this Submit's queue surgery).
// The caller must call Release(resource) once a granted request finishes.
// Submit keeps the two callbacks, not a closure over them, so a caller
// that binds them once per record of its own submits without allocating.
func (a *Admission) Submit(now simtime.Time, class, resource string, grant func(), shed func(ShedReason)) {
	cs, ok := a.byName[class]
	if !ok {
		panic(fmt.Sprintf("policy: unknown admission class %q", class))
	}
	// Queue-full shed fires synchronously: Submit is never called from
	// inside dispatch's queue walk (only from its callback phase, where
	// re-entry is safe), so the callback cannot corrupt surgery.
	if cs.cfg.QueueLimit > 0 && len(cs.queue) >= cs.cfg.QueueLimit {
		cs.shedFull++
		shed(ShedQueueFull)
		return
	}
	rq, _ := a.requests.Get()
	rq.res, rq.enqueued, rq.grant, rq.shed = a.resource(resource), now, grant, shed
	rq.res.queued++
	cs.queue = append(cs.queue, rq)
	a.dispatch(now)
}

// Release returns a granted request's resource slot and dispatches the
// backlog.
func (a *Admission) Release(now simtime.Time, resource string) {
	rs := a.resource(resource)
	if rs.inflight > 0 {
		rs.inflight--
	}
	a.dispatch(now)
}

// Poll re-runs deadline shedding and dispatch with no other state change
// (called from a ticker so queued requests are shed on time even during
// event lulls).
func (a *Admission) Poll(now simtime.Time) { a.dispatch(now) }

// dispatch is the scheduler: shed expired requests, then grant as many
// queued requests as ready resources have slots for, priority classes
// first, FIFO within a class. The requests the walk takes out of the
// queues collect in a.fire and hear their outcome after it; if a callback
// re-enters (Submit/Release from a grant), the walk re-runs until stable.
// Each request goes back to the free list before its callback is called,
// so a re-entrant Submit may reuse it: its fields are read first.
func (a *Admission) dispatch(now simtime.Time) {
	if a.dispatching {
		a.dirty = true
		return
	}
	a.dispatching = true
	for {
		a.dirty = false
		a.fire = a.fire[:0]
		for _, cs := range a.classes {
			kept := cs.queue[:0]
			for _, rq := range cs.queue {
				if cs.cfg.MaxWait > 0 && now-rq.enqueued >= cs.cfg.MaxWait {
					cs.shedLate++
					rq.res.queued--
					a.fire = append(a.fire, rq)
					continue
				}
				if rs := rq.res; rs.ready && rs.inflight < a.slotCap {
					rs.inflight++
					rs.queued--
					rq.granted = true
					a.fire = append(a.fire, rq)
					continue
				}
				kept = append(kept, rq)
			}
			// Zero the tail so dropped requests don't pin memory.
			clear(cs.queue[len(kept):])
			cs.queue = kept
		}
		for _, rq := range a.fire {
			grant, shed, granted := rq.grant, rq.shed, rq.granted
			*rq = request{}
			a.requests.Put(rq)
			if granted {
				grant()
			} else {
				shed(ShedDeadline)
			}
		}
		if !a.dirty {
			break
		}
	}
	a.dispatching = false
}

// QueueDepth returns the total queued count across classes.
func (a *Admission) QueueDepth() int {
	n := 0
	for _, cs := range a.classes {
		n += len(cs.queue)
	}
	return n
}

// Demand returns the queued + in-flight request count for one resource —
// the autoscaler's pressure signal.
func (a *Admission) Demand(resource string) int {
	rs := a.res[resource]
	if rs == nil {
		return 0
	}
	return rs.queued + rs.inflight
}
