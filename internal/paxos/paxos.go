// Package paxos implements the multi-decree Paxos replicated log the UStore
// Master runs on (§IV-A: "the Master ... is implemented as a replicated
// state machine using the Paxos consensus protocol").
//
// Every node is acceptor, learner, and potential proposer. A stable leader
// is elected with Phase 1 over all unchosen slots at once (Multi-Paxos);
// commands then need only Phase 2. Heartbeats maintain leadership and carry
// the chosen prefix so followers can request catch-up. Randomized election
// timeouts restore liveness after leader failure.
//
// The implementation is single-threaded on the simulation scheduler: all
// handlers run as scheduler events, so the protocol state needs no locks
// and every run is deterministic. That holds for the free lists of hot wire
// records too, which receivers give records back to. Safety holds under
// message loss, duplication, reordering (simnet delivers with per-link
// latency), and partitions; tests assert the canonical invariants (one
// value chosen per slot, identical applied prefixes).
package paxos

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"time"

	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// Command is a value proposed into the log. ID must be unique per logical
// command: a leader drops a second proposal of an ID it already placed (its
// inFlight entry, kept for the node's life). A command that reaches another
// leader too, as under a leader change, is chosen and applied twice.
type Command struct {
	ID   string
	Data any
}

// noopID marks gap-filling commands issued during leader recovery.
const noopID = "__paxos_noop__"

// IsNoop reports whether cmd is a recovery no-op the state machine should
// skip.
func (c Command) IsNoop() bool { return c.ID == noopID }

// Applier receives chosen commands in slot order, exactly once per slot.
type Applier func(slot int, cmd Command)

// Config tunes protocol timing.
type Config struct {
	// HeartbeatInterval is the leader's heartbeat period.
	HeartbeatInterval time.Duration
	// ElectionTimeoutBase is the minimum silence before campaigning; each
	// node adds a random fraction of it again to avoid duels.
	ElectionTimeoutBase time.Duration
	// PhaseTimeout bounds each Prepare/Accept round before retry.
	PhaseTimeout time.Duration
	// Rand is the stream the election jitter draws from; nil draws from
	// the network's (Network.Rand).
	Rand *rand.Rand
}

// DefaultConfig returns timing suitable for a datacenter-local quorum.
func DefaultConfig() Config {
	return Config{
		HeartbeatInterval:   100 * time.Millisecond,
		ElectionTimeoutBase: 400 * time.Millisecond,
		PhaseTimeout:        300 * time.Millisecond,
	}
}

// Ballot is a proposal number: round<<16 | proposerIndex.
type Ballot uint64

// NewBallot builds a ballot from a round counter and proposer index.
func NewBallot(round uint64, proposer int) Ballot {
	return Ballot(round<<16 | uint64(proposer&0xffff))
}

// Round returns the round component.
func (b Ballot) Round() uint64 { return uint64(b) >> 16 }

// slotState is one log position's acceptor + learner state.
type slotState struct {
	acceptedBallot Ballot
	acceptedValue  Command
	hasAccepted    bool
	chosen         bool
	chosenValue    Command
	// timer is the leader's newest Phase 2 proposal of the slot, which
	// counts its acks; nil once the slot is chosen or the timer fired.
	timer *phaseTimer
}

// Wire messages (delivered as simnet payloads). The hot kinds — accept,
// accepted, chosen and heartbeat — travel as pooled wire records; the rare
// ones are boxed values.
type (
	prepareMsg struct {
		Ballot   Ballot
		FromSlot int
	}
	promiseMsg struct {
		Ballot   Ballot
		Accepted []wireSlot
	}
	nackMsg struct {
		Ballot Ballot // the higher ballot the acceptor promised
	}
	acceptMsg struct {
		Ballot Ballot
		Slot   int
		Value  Command
		Floor  int
	}
	acceptedMsg struct {
		Ballot  Ballot
		Slot    int
		Applied int // the sender's applied index: a floor report
	}
	chosenMsg struct {
		Slot  int
		Value Command
	}
	heartbeatMsg struct {
		Ballot       Ballot
		ChosenPrefix int
		Floor        int
	}
	proposeFwd struct {
		Cmd Command
	}
	catchupReq struct {
		FromSlot int
	}
	catchupResp struct {
		Entries []wireSlot
	}
)

type wireSlot struct {
	Slot   int
	Ballot Ballot
	Value  Command
	Chosen bool
}

// broadcast sends msg to every peer, self included, each in a record of
// its own from the sending node's list l. The hot messages travel as
// *simnet.Record, so a send boxes nothing; dispatch gives each record back
// once its handler returns, and the handlers copy what they keep, the
// Command and scalars.
func broadcast[T any](n *Node, l *simnet.Records[T], msg T, size int) {
	for _, p := range n.peerAddrs {
		n.node.Send(p, l.Take(msg), size)
	}
}

// Node is one Paxos replica.
type Node struct {
	name  string
	index int
	peers []string // includes self
	// peerAddrs are the peers' interned addresses, in peers' order; addr
	// is this node's.
	peerAddrs []simnet.Addr
	addr      simnet.Addr
	cfg       Config
	sched     *simtime.Scheduler
	net       *simnet.Network
	node      *simnet.Node
	apply     Applier

	// Acceptor state.
	promised Ballot

	// Log: slots[i] is slot base+i. Every slot below base is chosen and
	// applied on every peer, and slot answers it with the sentinel below.
	slots   []slotState
	base    int
	below   slotState
	applied int // next slot to apply
	chosenP int // contiguous chosen prefix (== lowest unchosen slot)
	// peerApplied[i] bounds sorted peer i's applied index from below: its
	// accepted replies report it, and leaders send the floor.
	peerApplied []int

	// Leadership.
	isLeader     bool
	leaderBallot Ballot
	leaderHint   simnet.Addr // who we believe leads (simnet.NoAddr: nobody)
	lastLeaderAt simtime.Time
	campaigning  bool
	promises     map[simnet.Addr][]wireSlot
	nextSlot     int // leader: next free slot

	// Client proposals.
	pending   []Command
	inFlight  map[string]int // cmd ID -> slot (leader side)
	onApplied map[string]func(slot int)

	// Receiver-event timers: one pending heartbeat and election timeout each.
	hbArmed       bool
	electionArmed bool
	phases        simtime.FreeList[phaseTimer]

	// Free lists of the hot wire records this node sends.
	accepts   simnet.Records[acceptMsg]
	accepteds simnet.Records[acceptedMsg]
	chosens   simnet.Records[chosenMsg]
	beats     simnet.Records[heartbeatMsg]

	stopped bool
}

// New creates a replica named name (must appear in peers) on net.
func New(net *simnet.Network, name string, peers []string, cfg Config, apply Applier) *Node {
	idx := -1
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	for i, p := range sorted {
		if p == name {
			idx = i
		}
	}
	if idx < 0 || len(sorted) > 64 { // acks are a 64-bit mask
		panic(fmt.Sprintf("paxos: %s not in peer list %v, or over 64 peers", name, peers))
	}
	if cfg.Rand == nil {
		cfg.Rand = net.Rand()
	}
	n := &Node{
		name:        name,
		index:       idx,
		peers:       sorted,
		peerAddrs:   make([]simnet.Addr, len(sorted)),
		cfg:         cfg,
		sched:       net.Scheduler(),
		net:         net,
		node:        net.Node(name),
		apply:       apply,
		below:       slotState{chosen: true},
		leaderHint:  simnet.NoAddr,
		peerApplied: make([]int, len(sorted)),
		inFlight:    make(map[string]int),
		onApplied:   make(map[string]func(int)),
	}
	for i, p := range sorted {
		n.peerAddrs[i] = net.Addr(p)
	}
	n.addr = net.Addr(name)
	n.node.Handle(n.dispatch)
	n.armElectionTimer()
	return n
}

// IsLeader reports current leadership belief.
func (n *Node) IsLeader() bool { return n.isLeader }

// LeaderIndex returns the believed leader's index in Peers (-1 if unknown).
func (n *Node) LeaderIndex() int {
	if n.isLeader {
		return n.index
	}
	return slices.Index(n.peerAddrs, n.leaderHint)
}

// Peers returns the group's names, sorted. The slice is shared: do not
// modify it.
func (n *Node) Peers() []string { return n.peers }

// Stop makes the node inert (process crash). Its acceptor state is
// retained, modelling a restart-with-durable-state when Resume is called.
func (n *Node) Stop() {
	n.stopped = true
	n.isLeader = false
	n.node.SetDown(true)
}

// Resume restarts a stopped node, keeping an election timeout still pending.
func (n *Node) Resume() {
	n.stopped = false
	n.node.SetDown(false)
	n.lastLeaderAt = n.sched.Now()
	n.armElectionTimer()
}

// Propose submits a command. If this node is not leader it forwards to the
// believed leader (or buffers until one emerges). onApplied, if non-nil,
// fires when the command is applied locally (at-least-once: see Command for
// when a command can be applied twice).
func (n *Node) Propose(cmd Command, onApplied func(slot int)) {
	if n.stopped {
		return
	}
	if onApplied != nil {
		n.onApplied[cmd.ID] = onApplied
	}
	if n.isLeader {
		n.leaderPropose(cmd)
		return
	}
	if n.leaderHint != simnet.NoAddr {
		n.node.Send(n.leaderHint, proposeFwd{Cmd: cmd}, 64)
		return
	}
	n.pending = append(n.pending, cmd)
}

func (n *Node) quorum() int { return len(n.peers)/2 + 1 }

// slot returns slot i, growing the log to hold it. The pointer is valid
// until the log next grows or truncates. A slot below the floor is the
// chosen sentinel, which every caller leaves alone.
func (n *Node) slot(i int) *slotState {
	if i < n.base {
		return &n.below
	}
	for i-n.base >= len(n.slots) {
		n.slots = append(n.slots, slotState{})
	}
	return &n.slots[i-n.base]
}

// floor is the lowest slot some peer of the group may not have applied.
func (n *Node) floor() int { return slices.Min(n.peerApplied) }

// learnFloor raises every peer's bound to a floor a leader sent.
func (n *Node) learnFloor(f int) {
	for i, a := range n.peerApplied {
		n.peerApplied[i] = max(a, f)
	}
	n.truncate()
}

// truncate drops the slots below the floor once they are half the log and
// at least 64: the tail moves to the front, and the vacated entries are
// cleared so they pin nothing. inFlight is not trimmed (see Command).
func (n *Node) truncate() {
	drop := min(n.floor(), n.applied) - n.base
	if drop < 64 || 2*drop < len(n.slots) {
		return
	}
	k := copy(n.slots, n.slots[drop:])
	clear(n.slots[k:])
	n.slots = n.slots[:k]
	n.base += drop
}

// --- Elections ---

// electionTimer is the receiver of a node's election timeout.
type electionTimer Node

func (t *electionTimer) Fire() {
	n := (*Node)(t)
	n.electionArmed = false
	if n.stopped {
		return
	}
	if !n.isLeader && n.sched.Now()-n.lastLeaderAt >= n.cfg.ElectionTimeoutBase {
		n.campaign()
	}
	n.armElectionTimer()
}

func (n *Node) armElectionTimer() {
	if n.electionArmed {
		return
	}
	n.electionArmed = true
	jitter := time.Duration(n.cfg.Rand.Int63n(int64(n.cfg.ElectionTimeoutBase)))
	n.sched.FireAfterR(n.cfg.ElectionTimeoutBase+jitter, (*electionTimer)(n))
}

func (n *Node) campaign() {
	n.campaigning = true
	round := n.promised.Round() + 1
	b := NewBallot(round, n.index)
	n.promised = b
	n.leaderBallot = b
	n.promises = map[simnet.Addr][]wireSlot{}
	prepare := any(prepareMsg{Ballot: b, FromSlot: n.chosenP}) // boxed once for every peer
	for _, p := range n.peerAddrs {
		n.node.Send(p, prepare, 64)
	}
	n.sched.FireAfter(n.cfg.PhaseTimeout, func() {
		if n.campaigning && n.leaderBallot == b && !n.isLeader {
			n.campaigning = false // retry via election timer
		}
	})
}

// --- Message handling ---

// dispatch handles one delivery and then gives a wire record back home.
func (n *Node) dispatch(msg simnet.Message) {
	if w, ok := msg.Payload.(simnet.Pooled); ok {
		defer w.Release()
	}
	if n.stopped {
		return
	}
	switch m := msg.Payload.(type) {
	case prepareMsg:
		n.onPrepare(msg.From, m)
	case promiseMsg:
		n.onPromise(msg.From, m)
	case nackMsg:
		n.onNack(m)
	case *simnet.Record[acceptMsg]:
		n.onAccept(msg.From, m.Msg)
	case *simnet.Record[acceptedMsg]:
		n.onAccepted(msg.From, m.Msg)
	case *simnet.Record[chosenMsg]:
		n.markChosen(m.Msg.Slot, m.Msg.Value)
	case *simnet.Record[heartbeatMsg]:
		n.onHeartbeat(msg.From, m.Msg)
	case proposeFwd:
		if n.isLeader {
			n.leaderPropose(m.Cmd)
		} else if n.leaderHint != simnet.NoAddr && n.leaderHint != msg.From {
			n.node.Send(n.leaderHint, m, 64)
		} else {
			n.pending = append(n.pending, m.Cmd)
		}
	case catchupReq:
		n.onCatchupReq(msg.From, m)
	case catchupResp:
		for _, e := range m.Entries {
			if e.Chosen {
				n.markChosen(e.Slot, e.Value)
			}
		}
	}
}

func (n *Node) onPrepare(from simnet.Addr, m prepareMsg) {
	if m.Ballot < n.promised {
		n.node.Send(from, nackMsg{Ballot: n.promised}, 16)
		return
	}
	n.promised = m.Ballot
	if from != n.addr {
		// A prepare from a would-be leader resets our election patience.
		n.lastLeaderAt = n.sched.Now()
	}
	// A request from below the floor is stale, a duplicate overtaken by the
	// requester's own progress: the floor is at most the applied index it
	// reported, so it holds every slot below base. Those are left out of the
	// reply, which is still charged its full size (here and in onCatchupReq).
	var acc []wireSlot
	for i := max(m.FromSlot, n.base) - n.base; i < len(n.slots); i++ {
		s := &n.slots[i]
		switch {
		case s.chosen:
			acc = append(acc, wireSlot{Slot: n.base + i, Ballot: s.acceptedBallot, Value: s.chosenValue, Chosen: true})
		case s.hasAccepted:
			acc = append(acc, wireSlot{Slot: n.base + i, Ballot: s.acceptedBallot, Value: s.acceptedValue})
		}
	}
	n.node.Send(from, promiseMsg{Ballot: m.Ballot, Accepted: acc}, 64+(len(acc)+max(n.base-m.FromSlot, 0))*32)
}

func (n *Node) onPromise(from simnet.Addr, m promiseMsg) {
	if !n.campaigning || m.Ballot != n.leaderBallot {
		return
	}
	n.promises[from] = m.Accepted
	if len(n.promises) < n.quorum() {
		return
	}
	// Quorum: become leader.
	n.campaigning = false
	n.isLeader = true
	n.leaderHint = n.addr
	n.lastLeaderAt = n.sched.Now()

	// Recover: adopt highest-ballot accepted value per slot; chosen values
	// win outright.
	highest := make(map[int]wireSlot)
	maxSlot := n.chosenP - 1
	for _, acc := range n.promises {
		for _, ws := range acc {
			if ws.Slot > maxSlot {
				maxSlot = ws.Slot
			}
			if cur, ok := highest[ws.Slot]; ws.Chosen || !cur.Chosen && (!ok || ws.Ballot > cur.Ballot) {
				highest[ws.Slot] = ws
			}
		}
	}
	n.promises = nil         // read once; the next campaign makes a fresh map
	n.nextSlot = maxSlot + 1 // maxSlot starts at chosenP-1
	for i := n.chosenP; i <= maxSlot; i++ {
		if ws, ok := highest[i]; ok {
			if ws.Chosen {
				n.markChosen(ws.Slot, ws.Value)
				broadcast(n, &n.chosens, chosenMsg{Slot: ws.Slot, Value: ws.Value}, 64)
			} else {
				n.phase2(i, ws.Value)
			}
		} else {
			n.phase2(i, Command{ID: noopID})
		}
	}
	// Drain buffered proposals.
	pend := n.pending
	n.pending = nil
	for _, c := range pend {
		n.leaderPropose(c)
	}
	n.heartbeat()
}

func (n *Node) onNack(m nackMsg) {
	if m.Ballot > n.promised {
		n.promised = m.Ballot
	}
	if n.isLeader && m.Ballot > n.leaderBallot {
		n.isLeader = false
	}
	n.campaigning = false
}

func (n *Node) leaderPropose(cmd Command) {
	if _, dup := n.inFlight[cmd.ID]; dup {
		return // already proposed under this leadership; Phase 2 retries handle it
	}
	slot := n.nextSlot
	n.nextSlot++
	n.inFlight[cmd.ID] = slot
	n.phase2(slot, cmd)
}

func (n *Node) phase2(slot int, value Command) {
	s := n.slot(slot)
	if s.chosen {
		return
	}
	b := n.leaderBallot
	broadcast(n, &n.accepts, acceptMsg{Ballot: b, Slot: slot, Value: value, Floor: n.floor()}, 128)
	t, fresh := n.phases.Get()
	if fresh {
		t.n = n
	}
	t.slot, t.ballot, t.value, t.acks = slot, b, value, 0
	t.ev = n.sched.AfterR(n.cfg.PhaseTimeout, t)
	s.timer = t
}

// phaseTimer is one Phase 2 proposal of a slot: its acks and its timeout,
// recycled through the node's free list. markChosen takes the slot's
// newest proposal out of the queue; an older one, superseded by a
// proposal under a new ballot, still fires, and does nothing.
type phaseTimer struct {
	n      *Node
	ev     *simtime.Event
	slot   int
	ballot Ballot
	value  Command
	acks   uint64 // one bit per sorted-peer index
}

func (t *phaseTimer) Fire() {
	n := t.n
	t.ev.Release()
	s := n.slot(t.slot)
	if s.timer == t {
		s.timer = nil
	}
	if !n.stopped && n.isLeader && n.leaderBallot == t.ballot && !s.chosen {
		n.phase2(t.slot, t.value) // retry under same ballot
	}
	n.freePhase(t)
}

// freePhase returns a proposal that left the queue to the free list.
func (n *Node) freePhase(t *phaseTimer) {
	t.ev, t.value = nil, Command{}
	n.phases.Put(t)
}

func (n *Node) onAccept(from simnet.Addr, m acceptMsg) {
	if m.Ballot < n.promised {
		n.node.Send(from, nackMsg{Ballot: n.promised}, 16)
		return
	}
	n.promised = m.Ballot
	if from != n.addr {
		n.lastLeaderAt = n.sched.Now()
		n.leaderHint = from
		if n.isLeader && m.Ballot > n.leaderBallot {
			n.isLeader = false
		}
	}
	s := n.slot(m.Slot)
	if !s.chosen {
		s.acceptedBallot = m.Ballot
		s.acceptedValue = m.Value
		s.hasAccepted = true
	}
	n.node.Send(from, n.accepteds.Take(acceptedMsg{Ballot: m.Ballot, Slot: m.Slot, Applied: n.applied}), 32)
	n.learnFloor(m.Floor)
}

func (n *Node) onAccepted(from simnet.Addr, m acceptedMsg) {
	i := slices.Index(n.peerAddrs, from)
	n.peerApplied[i] = max(n.peerApplied[i], m.Applied)
	n.truncate()
	if !n.isLeader || m.Ballot != n.leaderBallot {
		return
	}
	s := n.slot(m.Slot)
	t := s.timer
	if t == nil {
		return // chosen: markChosen dropped the proposal
	}
	t.acks |= 1 << i
	if bits.OnesCount64(t.acks) >= n.quorum() {
		value := s.acceptedValue
		if !s.hasAccepted {
			return // leaders self-deliver their accept before remote acks arrive
		}
		n.markChosen(m.Slot, value)
		broadcast(n, &n.chosens, chosenMsg{Slot: m.Slot, Value: value}, 128)
	}
}

func (n *Node) markChosen(slot int, value Command) {
	s := n.slot(slot)
	if s.chosen {
		return
	}
	s.chosen = true
	s.chosenValue = value
	if t := s.timer; t != nil {
		s.timer = nil
		t.ev.Cancel()
		t.ev.Release()
		n.freePhase(t)
	}
	for n.chosenP-n.base < len(n.slots) && n.slots[n.chosenP-n.base].chosen {
		n.chosenP++
	}
	n.applyReady()
}

func (n *Node) applyReady() {
	for n.applied < n.chosenP {
		slot := n.applied
		n.applied++
		cmd := n.slots[slot-n.base].chosenValue
		if !cmd.IsNoop() && n.apply != nil {
			n.apply(slot, cmd)
		}
		if cb, ok := n.onApplied[cmd.ID]; ok {
			delete(n.onApplied, cmd.ID)
			cb(slot)
		}
	}
}

// --- Heartbeats & catch-up ---

// heartbeatTimer is the receiver of a leader's heartbeat tick.
type heartbeatTimer Node

func (t *heartbeatTimer) Fire() {
	n := (*Node)(t)
	n.hbArmed = false
	n.heartbeat()
}

// heartbeat broadcasts and keeps one tick pending, across a lose and regain.
func (n *Node) heartbeat() {
	if n.stopped || !n.isLeader {
		return
	}
	broadcast(n, &n.beats, heartbeatMsg{Ballot: n.leaderBallot, ChosenPrefix: n.chosenP, Floor: n.floor()}, 32)
	if !n.hbArmed {
		n.hbArmed = true
		n.sched.FireAfterR(n.cfg.HeartbeatInterval, (*heartbeatTimer)(n))
	}
}

func (n *Node) onHeartbeat(from simnet.Addr, m heartbeatMsg) {
	if m.Ballot < n.promised {
		n.node.Send(from, nackMsg{Ballot: n.promised}, 16)
		return
	}
	n.promised = m.Ballot
	if from != n.addr {
		n.isLeader = false
		n.leaderHint = from
		n.lastLeaderAt = n.sched.Now()
		n.campaigning = false
		// Flush buffered proposals to the live leader.
		pend := n.pending
		n.pending = nil
		for _, c := range pend {
			n.node.Send(from, proposeFwd{Cmd: c}, 64)
		}
	}
	if m.ChosenPrefix > n.chosenP {
		n.node.Send(from, catchupReq{FromSlot: n.chosenP}, 16)
	}
	n.learnFloor(m.Floor)
}

func (n *Node) onCatchupReq(from simnet.Addr, m catchupReq) {
	end := min(n.chosenP, m.FromSlot+256)
	if end <= m.FromSlot {
		return
	}
	start := max(m.FromSlot, n.base)
	entries := make([]wireSlot, 0, max(end-start, 0))
	for i := start; i < end; i++ {
		entries = append(entries, wireSlot{Slot: i, Value: n.slots[i-n.base].chosenValue, Chosen: true})
	}
	n.node.Send(from, catchupResp{Entries: entries}, 64+(end-m.FromSlot)*64)
}
