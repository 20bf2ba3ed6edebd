package coord

import (
	"errors"
	"strings"
	"time"

	"ustore/internal/simtime"
)

// Election implements the active/standby master election the prototype runs
// on ZooKeeper (§V-B): each candidate holds a session and races to create
// an ephemeral leader znode; losers watch it and retry when it vanishes.
type Election struct {
	store     *Store
	path      string
	candidate string
	session   string
	ttl       time.Duration

	// OnElected fires when this candidate wins.
	OnElected func()
	// OnDeposed fires when a previously-won leadership is lost (session
	// expired and someone else may take over).
	OnDeposed func()

	leading bool
	stopped bool
	// leader is Leader's last answer, kept so an unchanged leader costs no
	// string.
	leader string

	// electedAt and the store's ping-ack log detect asymmetric partitions:
	// a leader whose pings still reach the paxos leader (send path works)
	// but whose acks never come back (receive path dead) would otherwise
	// keep its session alive forever while being unreachable to everyone.
	electedAt simtime.Time
	// demoted marks a self-deposed leader: it stops pinging (so the session
	// expires and a reachable candidate takes over) and stops campaigning
	// until an applied event proves the receive path works again.
	demoted bool
}

// NewElection creates a candidate for leadership of path on the given
// replica. candidate is written as the leader znode's data so observers can
// see who leads.
func NewElection(store *Store, path, candidate string, ttl time.Duration) *Election {
	return &Election{
		store:     store,
		path:      path,
		candidate: candidate,
		session:   "election:" + path + ":" + candidate,
		ttl:       ttl,
	}
}

// Leading reports whether this candidate currently holds leadership.
func (e *Election) Leading() bool { return e.leading }

// SetSession overrides the session ID this candidate campaigns under; call
// before Run. A restarted candidate must use a fresh incarnation-stamped ID:
// re-creating the previous life's session would refresh it, and if that
// session still owns the leader znode the restarted process would keep the
// znode alive with its pings while never learning it "leads" — wedging the
// group leaderless forever.
func (e *Election) SetSession(id string) { e.session = id }

// Leader returns the current leader's candidate name per this replica's
// applied state ("" if none).
func (e *Election) Leader() string {
	n := e.store.znode(e.path)
	if n == nil {
		return ""
	}
	if string(n.data) != e.leader {
		e.leader = string(n.data)
	}
	return e.leader
}

// Run starts campaigning. It keeps the session alive and re-campaigns
// whenever the leader znode disappears.
func (e *Election) Run() {
	e.store.Watch(e.path, func(ev Event) {
		if e.stopped {
			return
		}
		switch ev.Type {
		case EventDeleted:
			// An applied deletion reached us, so the receive path works:
			// a self-demoted candidate may campaign again.
			e.demoted = false
			if e.leading {
				e.leading = false
				if e.OnDeposed != nil {
					e.OnDeposed()
				}
			}
			e.tryAcquire()
		}
	})
	// Ensure the leader znode's ancestors exist (ErrExists is fine).
	parts := strings.Split(e.path, "/")
	prefix := ""
	for _, p := range parts[1 : len(parts)-1] {
		prefix += "/" + p
		e.store.Create(prefix, nil, "", nil)
	}
	e.store.CreateSession(e.session, e.ttl, func(err error) {
		if err != nil || e.stopped {
			return
		}
		e.keepAlive()
		e.tryAcquire()
	})
}

// ensure re-campaigns if the path is leaderless. The deletion watch alone is
// not enough to guarantee progress: an acquire proposal can be lost to a
// leader change or partition without any further EventDeleted ever firing.
// The leader check is a local applied-state read, so the steady state (a
// leader exists) costs no proposals.
func (e *Election) ensure() {
	if e.stopped || e.leading || e.demoted {
		return
	}
	if !e.store.Exists(e.path) {
		e.tryAcquire()
	}
}

// Stop abandons the campaign (the session lapses and any held leadership
// expires naturally).
func (e *Election) Stop() {
	e.stopped = true
}

func (e *Election) keepAlive() {
	if e.stopped {
		return
	}
	if e.leading {
		// Gray-failure guard: our pings may still be refreshing the session
		// on the paxos leader (outbound path alive) while nothing reaches us
		// back. Without this check an unreachable leader holds the znode
		// forever and the cluster wedges. If no ack has confirmed
		// leadership within a full TTL, step down and go silent so the
		// session expires and a reachable candidate can take over.
		confirmed := e.electedAt
		if ack, ok := e.store.LastPingAck(e.session); ok && ack > confirmed {
			confirmed = ack
		}
		if e.store.sched.Now()-confirmed > e.ttl {
			e.leading = false
			e.demoted = true
			if e.OnDeposed != nil {
				e.OnDeposed()
			}
		}
	}
	if !e.demoted {
		e.store.Ping(e.session)
	}
	e.ensure()
	e.store.sched.FireAfterR(e.ttl/3, (*keepAliveTimer)(e))
}

// keepAliveTimer is the receiver of an election's keep-alive events.
type keepAliveTimer Election

func (t *keepAliveTimer) Fire() { (*Election)(t).keepAlive() }

func (e *Election) tryAcquire() {
	if e.stopped || e.leading || e.demoted {
		return
	}
	e.store.Create(e.path, []byte(e.candidate), e.session, func(err error) {
		if e.stopped {
			return
		}
		if err == nil {
			e.leading = true
			e.electedAt = e.store.sched.Now()
			if e.OnElected != nil {
				e.OnElected()
			}
			return
		}
		if errors.Is(err, ErrNoSession) {
			// Our session expired (e.g. this replica was partitioned past the
			// TTL). Start a fresh session under the same ID and re-campaign,
			// as a ZooKeeper client would reconnect with a new session.
			e.store.CreateSession(e.session, e.ttl, func(serr error) {
				if serr == nil && !e.stopped {
					e.tryAcquire()
				}
			})
			return
		}
		// Lost the race: the watch on e.path (and the periodic ensure pass)
		// retries when it frees up.
	})
}
