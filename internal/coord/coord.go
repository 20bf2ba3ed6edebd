// Package coord provides the ZooKeeper-like coordination service the UStore
// prototype builds its Master on (§V-B): a hierarchical tree of znodes
// replicated with Paxos, ephemeral nodes bound to expiring sessions, watches
// on mutations, and a leader-election recipe.
//
// Each Store replica embeds a paxos.Node; mutations are proposed into the
// replicated log and applied deterministically on every replica. Reads are
// served from local applied state. Session liveness is tracked by the
// current Paxos leader, which proposes explicit ExpireSession commands —
// so ephemeral cleanup is itself replicated and deterministic.
//
// Divergence from real ZooKeeper, for simplicity: watches are persistent
// (they keep firing) rather than one-shot.
package coord

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"ustore/internal/paxos"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// Errors returned by tree operations.
var (
	// ErrExists is returned by Create on an existing path.
	ErrExists = errors.New("coord: node exists")
	// ErrNotFound is returned for operations on a missing path.
	ErrNotFound = errors.New("coord: no such node")
	// ErrNoParent is returned by Create when the parent path is missing.
	ErrNoParent = errors.New("coord: parent missing")
	// ErrHasChildren is returned by Delete on a non-empty node.
	ErrHasChildren = errors.New("coord: node has children")
	// ErrNoSession is returned when an ephemeral create names an unknown
	// or expired session.
	ErrNoSession = errors.New("coord: no such session")
	// ErrBadPath is returned for malformed paths.
	ErrBadPath = errors.New("coord: bad path")
)

// EventType classifies watch events.
type EventType int

const (
	// EventCreated fires when a node is created.
	EventCreated EventType = iota
	// EventDeleted fires when a node is deleted (including ephemeral
	// cleanup on session expiry).
	EventDeleted
	// EventDataChanged fires when a node's data is set.
	EventDataChanged
)

// Event is delivered to watchers.
type Event struct {
	Type EventType
	Path string
	Data []byte
}

type znode struct {
	data     []byte
	children map[string]*znode // nil until the first child
	// session is non-empty for ephemeral nodes.
	session string
}

// replicated command payloads
type (
	opCreate struct {
		Path    string
		Data    []byte
		Session string // "" = persistent
	}
	opSet struct {
		Path string
		Data []byte
	}
	opDelete struct {
		Path string
	}
	opNewSession struct {
		ID  string
		TTL time.Duration
		Now time.Duration // leader-stamped time, replicated for determinism
	}
	opExpireSession struct {
		ID  string
		Gen uint64 // expire only if session generation still matches
	}
	opTouchSession struct {
		ID string
	}
	// pingMsg renews Session on the leader. A replica builds one per
	// session on its first Ping and sends that record every time after,
	// so ping and ack payloads are read-only and shared; ack is the reply
	// the leader sends back.
	pingMsg struct {
		Session string
		ack     *pingAck
	}
	// pingAck confirms receipt of a pingMsg back to the sender. A session
	// holder that can send but not receive keeps refreshing its session on
	// the leader while its acks vanish — the asymmetry Election uses to
	// self-demote instead of wedging the cluster behind an unreachable
	// leader.
	pingAck struct {
		Session string
	}
)

type sessionState struct {
	ttl time.Duration
	gen uint64 // bumped on replicated touch; guards stale expiry
}

// Store is one replica of the coordination service.
type Store struct {
	name  string
	sched *simtime.Scheduler
	node  *simnet.Node
	px    *paxos.Node
	// pingTo[i] is the ping endpoint of the paxos group's sorted peer i.
	pingTo []simnet.Addr

	root     *znode
	slab     []znode // unused znodes, carved 64 at a time
	sessions map[string]*sessionState

	// Leader-local liveness tracking.
	lastSeen map[string]simtime.Time
	// Replica-local ping-ack tracking (sender side): when the leader last
	// confirmed one of our session pings.
	ackSeen map[string]simtime.Time
	// pings holds each session's ping payload (see pingMsg).
	pings map[string]*pingMsg

	watches map[string][]func(Event)
	// childWatches fire on create/delete of direct children of a path.
	childWatches map[string][]func(Event)

	// pending completion callbacks keyed by command ID.
	pending map[string]func(error)
	nextCmd uint64
	idBuf   []byte // scratch for building command IDs

	stopped bool

	// sweep is the leader's session-expiry scan period; sweepArmed and
	// sweepRelay describe the pending sweep event (see sweepLoop).
	sweep      time.Duration
	sweepArmed time.Duration
	sweepRelay bool
	// sweepIDs is the sweep's buffer of session IDs, kept between sweeps.
	sweepIDs []string
}

// coordName is the simnet node name for a replica's session-ping endpoint.
func coordName(name string) string { return "coord:" + name }

// NewStore creates a replica named name with the given paxos peer set.
// Names must match the paxos peers passed to every other replica.
func NewStore(net *simnet.Network, name string, peers []string, cfg paxos.Config) *Store {
	s := &Store{
		name:         name,
		sched:        net.Scheduler(),
		node:         net.Node(coordName(name)),
		root:         &znode{},
		sessions:     map[string]*sessionState{},
		lastSeen:     map[string]simtime.Time{},
		ackSeen:      map[string]simtime.Time{},
		pings:        map[string]*pingMsg{},
		watches:      map[string][]func(Event){},
		childWatches: map[string][]func(Event){},
		pending:      map[string]func(error){},
		sweep:        250 * time.Millisecond,
	}
	s.px = paxos.New(net, name, peers, cfg, s.apply)
	for _, p := range s.px.Peers() {
		s.pingTo = append(s.pingTo, net.Addr(coordName(p)))
	}
	s.node.Handle(s.onMessage)
	s.sweepLoop()
	return s
}

// IsLeader reports whether this replica's paxos node leads.
func (s *Store) IsLeader() bool { return s.px.IsLeader() }

// Stop crashes the replica; Resume restarts it.
func (s *Store) Stop() {
	s.stopped = true
	s.px.Stop()
	s.node.SetDown(true)
}

// Resume restarts a stopped replica.
func (s *Store) Resume() {
	s.stopped = false
	s.px.Resume()
	s.node.SetDown(false)
}

// noParent is the parent walk reports under a missing ancestor; it never
// gains children.
var noParent znode

// walk checks path ("/" or "/a/b" with no empty component) and resolves it
// in place to its parent znode and leaf name. The parent of "/" is nil.
func (s *Store) walk(path string) (*znode, string, error) {
	if path == "" || path[0] != '/' || (len(path) > 1 && (path[len(path)-1] == '/' || strings.Contains(path, "//"))) {
		return nil, "", fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	n, rest := s.root, path[1:]
	for i := strings.IndexByte(rest, '/'); i >= 0 && n != &noParent; i = strings.IndexByte(rest, '/') {
		if n = n.children[rest[:i]]; n == nil {
			n = &noParent
		}
		rest = rest[i+1:]
	}
	if rest == "" {
		return nil, "", nil
	}
	return n, rest, nil
}

// znode returns path's node, or nil when there is none or the path is
// malformed; it formats no error.
func (s *Store) znode(path string) *znode {
	switch p, leaf, err := s.walk(path); {
	case err != nil:
		return nil
	case p == nil:
		return s.root
	default:
		return p.children[leaf]
	}
}

// lookup is znode with the reason there is none.
func (s *Store) lookup(path string) (*znode, error) {
	if n := s.znode(path); n != nil {
		return n, nil
	}
	if _, _, err := s.walk(path); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
}

// --- Local reads ---

// Get returns a copy of a node's data.
func (s *Store) Get(path string) ([]byte, error) {
	n, err := s.lookup(path)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(n.data))
	copy(out, n.data)
	return out, nil
}

// Exists reports whether a node exists.
func (s *Store) Exists(path string) bool { return s.znode(path) != nil }

// Children returns a node's child names, sorted.
func (s *Store) Children(path string) ([]string, error) {
	n, err := s.lookup(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// --- Watches (local to this replica) ---

// Watch registers fn for events on path (created/deleted/changed).
func (s *Store) Watch(path string, fn func(Event)) {
	s.watches[path] = append(s.watches[path], fn)
}

// WatchChildren registers fn for create/delete events of path's direct
// children.
func (s *Store) WatchChildren(path string, fn func(Event)) {
	s.childWatches[path] = append(s.childWatches[path], fn)
}

func (s *Store) fire(ev Event) {
	for _, fn := range s.watches[ev.Path] {
		fn(ev)
	}
	if ev.Type == EventCreated || ev.Type == EventDeleted {
		parent := parentOf(ev.Path)
		for _, fn := range s.childWatches[parent] {
			fn(ev)
		}
	}
}

func parentOf(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// --- Mutations (proposed through paxos) ---

func (s *Store) propose(data any, done func(error)) {
	s.nextCmd++
	s.idBuf = strconv.AppendUint(append(append(s.idBuf[:0], s.name...), '/'), s.nextCmd, 10)
	id := string(s.idBuf)
	if done != nil {
		s.pending[id] = done
	}
	s.px.Propose(paxos.Command{ID: id, Data: data}, nil)
}

// Create proposes creation of path. For ephemeral nodes pass the owning
// session ID; "" creates a persistent node. The store owns data from the
// call on (every replica keeps that slice): the caller must not write it.
func (s *Store) Create(path string, data []byte, session string, done func(error)) {
	s.propose(opCreate{Path: path, Data: data, Session: session}, done)
}

// Set proposes replacing path's data; the store owns data, as in Create.
func (s *Store) Set(path string, data []byte, done func(error)) {
	s.propose(opSet{Path: path, Data: data}, done)
}

// Delete proposes removing path (must have no children).
func (s *Store) Delete(path string, done func(error)) {
	s.propose(opDelete{Path: path}, done)
}

// CreateSession proposes a new session with the given TTL. The session must
// then be kept alive with Ping at least once per TTL.
func (s *Store) CreateSession(id string, ttl time.Duration, done func(error)) {
	s.propose(opNewSession{ID: id, TTL: ttl, Now: s.sched.Now()}, done)
}

// Ping renews a session. It is routed to the current paxos leader, which
// tracks liveness locally and proposes expiry only when pings stop.
func (s *Store) Ping(session string) {
	if s.stopped {
		return
	}
	leader := s.px.LeaderIndex()
	if leader < 0 {
		return
	}
	p := s.pings[session]
	if p == nil {
		p = &pingMsg{Session: session, ack: &pingAck{Session: session}}
		s.pings[session] = p
	}
	s.node.Send(s.pingTo[leader], p, 16)
}

func (s *Store) onMessage(msg simnet.Message) {
	if s.stopped {
		return
	}
	switch p := msg.Payload.(type) {
	case *pingMsg:
		s.lastSeen[p.Session] = s.sched.Now()
		s.node.Send(msg.From, p.ack, 16)
	case *pingAck:
		s.ackSeen[p.Session] = s.sched.Now()
	}
}

// LastPingAck returns when the paxos leader last acknowledged one of this
// replica's pings for session (sender-side view), and whether any ack has
// arrived at all.
func (s *Store) LastPingAck(session string) (simtime.Time, bool) {
	t, ok := s.ackSeen[session]
	return t, ok
}

// SetSweepInterval changes the session-expiry scan period (default 250ms).
// Long-horizon simulations raise it together with session TTLs so the sweep
// doesn't dominate the event budget; it must stay well below the shortest
// session TTL in use. Takes effect from the next scheduled sweep.
func (s *Store) SetSweepInterval(d time.Duration) {
	if d > 0 {
		s.sweep = d
	}
}

// sweepLoop arms the next session-expiry scan, armed with period
// sweepArmed. Stop and Resume arm nothing: a stopped replica's scan arms a
// relay one sweepArmed later that arms the next scan, so a stopped replica
// polls every two periods until it resumes.
func (s *Store) sweepLoop() {
	s.sweepArmed = s.sweep
	s.sched.FireAfterR(s.sweep, (*sweepTimer)(s))
}

// sweepTimer is the receiver of a replica's sweep events.
type sweepTimer Store

func (t *sweepTimer) Fire() {
	s := (*Store)(t)
	if s.sweepRelay {
		s.sweepRelay = false
		s.sweepLoop()
		return
	}
	if !s.stopped && s.px.IsLeader() {
		now := s.sched.Now()
		ids := s.sweepIDs[:0]
		for id := range s.sessions {
			ids = append(ids, id)
		}
		sort.Strings(ids) // deterministic expiry-proposal order
		for _, id := range ids {
			sess := s.sessions[id]
			seen, ok := s.lastSeen[id]
			if !ok {
				// First sweep since this replica became leader (or the
				// session was created elsewhere): grant a grace period.
				s.lastSeen[id] = now
				continue
			}
			if now-seen > sess.ttl {
				s.propose(opExpireSession{ID: id, Gen: sess.gen}, nil)
				delete(s.lastSeen, id) // avoid re-proposing every sweep
			}
		}
		s.sweepIDs = ids
	}
	if !s.stopped {
		s.sweepLoop()
		return
	}
	s.sweepRelay = true
	s.sched.FireAfterR(s.sweepArmed, t)
}

// --- Replicated state machine ---

func (s *Store) apply(slot int, cmd paxos.Command) {
	// Only a command's waiter reads its error: without one, a refusal is
	// its bare sentinel and nothing is formatted (every replica applies
	// every command, and only the proposer's has a waiter).
	done, waiting := s.pending[cmd.ID]
	var err error
	switch op := cmd.Data.(type) {
	case opCreate:
		err = s.applyCreate(op, waiting)
	case opSet:
		err = s.applySet(op, waiting)
	case opDelete:
		err = s.applyDelete(op, waiting)
	case opNewSession:
		s.sessions[op.ID] = &sessionState{ttl: op.TTL}
		if s.px.IsLeader() {
			s.lastSeen[op.ID] = s.sched.Now()
		}
	case opTouchSession:
		if sess, ok := s.sessions[op.ID]; ok {
			sess.gen++
		}
	case opExpireSession:
		s.applyExpire(op)
	default:
		err = fmt.Errorf("coord: unknown op %T", cmd.Data)
	}
	if waiting {
		delete(s.pending, cmd.ID)
		done(err)
	}
}

// pathErr is base's refusal of path: formatted with the path when explain
// is set (a waiter will read it), else the bare sentinel.
func pathErr(base error, path string, explain bool) error {
	if !explain {
		return base
	}
	return fmt.Errorf("%w: %s", base, path)
}

func (s *Store) applyCreate(op opCreate, explain bool) error {
	n, leaf, err := s.walk(op.Path)
	if err != nil {
		return err
	}
	if n == nil {
		return fmt.Errorf("%w: cannot create root", ErrExists)
	}
	if op.Session != "" {
		if _, ok := s.sessions[op.Session]; !ok {
			return fmt.Errorf("%w: %s", ErrNoSession, op.Session)
		}
	}
	if n == &noParent {
		return fmt.Errorf("%w: creating %s", ErrNoParent, op.Path)
	}
	if _, dup := n.children[leaf]; dup {
		return pathErr(ErrExists, op.Path, explain)
	}
	if n.children == nil {
		n.children = map[string]*znode{}
	}
	if len(s.slab) == 0 {
		s.slab = make([]znode, 64)
	}
	z := &s.slab[0]
	s.slab = s.slab[1:]
	z.data, z.session = op.Data, op.Session
	n.children[leaf] = z
	s.fire(Event{Type: EventCreated, Path: op.Path, Data: op.Data})
	return nil
}

func (s *Store) applySet(op opSet, explain bool) error {
	n := s.znode(op.Path)
	if n == nil {
		if !explain {
			return ErrNotFound
		}
		_, err := s.lookup(op.Path)
		return err
	}
	n.data = op.Data
	s.fire(Event{Type: EventDataChanged, Path: op.Path, Data: op.Data})
	return nil
}

func (s *Store) applyDelete(op opDelete, explain bool) error {
	n, leaf, err := s.walk(op.Path)
	if err != nil {
		return err
	}
	if n == nil {
		return fmt.Errorf("coord: cannot delete root")
	}
	child := n.children[leaf]
	if child == nil {
		return pathErr(ErrNotFound, op.Path, explain)
	}
	if len(child.children) > 0 {
		return fmt.Errorf("%w: %s", ErrHasChildren, op.Path)
	}
	delete(n.children, leaf)
	*child = znode{} // its slab slot stays pinned; its data need not
	s.fire(Event{Type: EventDeleted, Path: op.Path})
	return nil
}

func (s *Store) applyExpire(op opExpireSession) {
	sess, ok := s.sessions[op.ID]
	if !ok || sess.gen != op.Gen {
		return // stale expiry (session touched or already gone)
	}
	delete(s.sessions, op.ID)
	delete(s.lastSeen, op.ID)
	// Remove all ephemerals owned by the session, deepest-first so
	// non-empty checks cannot trip.
	var owned []string
	var walk func(prefix string, n *znode)
	walk = func(prefix string, n *znode) {
		for name, c := range n.children {
			p := prefix + "/" + name
			if c.session == op.ID {
				owned = append(owned, p)
			}
			walk(p, c)
		}
	}
	walk("", s.root)
	sort.Slice(owned, func(i, j int) bool { return len(owned[i]) > len(owned[j]) })
	for _, p := range owned {
		_ = s.applyDelete(opDelete{Path: p}, false)
	}
}
