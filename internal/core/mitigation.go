package core

import (
	"time"

	"ustore/internal/obs"
	"ustore/internal/policy"
	"ustore/internal/simtime"
)

// Client-side gray-failure mitigation. Quarantine (health.go) protects NEW
// allocations, but a client already mounted on a fail-slow target would
// still eat every inflated service time until the drain finishes. Three
// standard techniques cut that tail without waiting for the control plane:
//
//   - adaptive timeouts: the static 2s initiator deadline is replaced by
//     EWMA + 4*deviation of observed round trips (Jacobson-style, like a
//     TCP RTO — including the exponential backoff on timeout), so a
//     request to a target that has gone slow fails in hundreds of
//     milliseconds;
//   - hedged reads: when a read has a registered mirror copy and the
//     primary hasn't answered within the hedge delay, a second read is
//     issued to the mirror and the first reply wins (Dean & Barroso's
//     "tail at scale" hedging);
//   - circuit breaker: a target whose requests keep failing OR keep
//     completing anomalously slowly (fail-slow is still a failure) is
//     marked open, and reads go straight to the mirror with zero hedge
//     delay; a single half-open probe per cool-down tests recovery.
//
// State is keyed per block target — (host, volume) — not per host: gray
// failures are per disk, and a healthy mirror on the same host must not
// share the gray primary's model or breaker.
//
// Everything is deterministic — no RNG — so mitigation on/off comparisons
// under the same seed are exact.

// Adaptive-timeout and hedging tuning.
const (
	// mitMinSamples is how many clean round trips a target needs before
	// its latency model is trusted.
	mitMinSamples = 8
	// mitMinTimeout floors the adaptive timeout (and the slow-success
	// gate): below this, scheduler quantization and queueing noise
	// dominate.
	mitMinTimeout = 100 * time.Millisecond
	// mitMinHedge floors the hedge delay so a healthy fast pair doesn't
	// hedge every read (hedges should fire on tail requests only).
	mitMinHedge = 20 * time.Millisecond
	// mitDefaultHedge is used while both targets' models are warming up.
	mitDefaultHedge = 250 * time.Millisecond
	// mitMaxRTOShift caps the timeout backoff at 16x the model's deadline
	// (further capped by the static Timeout), preserving liveness if the
	// whole cluster legitimately slows down.
	mitMaxRTOShift = 4
)

// targetLatency is the per-target round-trip model: an EWMA of the RTT and
// an EWMA of its absolute deviation. Only clean samples — successes within
// the slow gate — update it: a fail-slow target's inflated round trips are
// the anomaly being detected and must not be allowed to redefine "normal".
type targetLatency struct {
	ewma    time.Duration
	dev     time.Duration
	samples uint64
	// rtoShift backs the adaptive deadline off exponentially after
	// timeouts (a timeout says nothing about the true RTT except "longer
	// than the deadline"); any completion resets it.
	rtoShift uint
}

func (tl *targetLatency) observe(rtt time.Duration) {
	if tl.samples == 0 {
		tl.ewma = rtt
		tl.dev = rtt / 2
	} else {
		diff := rtt - tl.ewma
		if diff < 0 {
			diff = -diff
		}
		tl.ewma += (rtt - tl.ewma) / 8
		tl.dev += (diff - tl.dev) / 4
	}
	tl.samples++
}

func (tl *targetLatency) warm() bool { return tl != nil && tl.samples >= mitMinSamples }

// deadline is the model's base timeout / slow gate: EWMA + 4*dev, floored.
func (tl *targetLatency) deadline() time.Duration {
	d := tl.ewma + 4*tl.dev
	if d < mitMinTimeout {
		d = mitMinTimeout
	}
	return d
}

// Mitigation is a ClientLib's gray-failure mitigation state. Obtain one
// with EnableMitigation; all methods run on the scheduler goroutine. The
// per-target circuit breaker is policy.Breaker (this stack's original
// breaker, extracted so core's server-side protection runs the same state
// machine per disk); its zero value keeps the historical 3-failure / 5s
// tuning.
type Mitigation struct {
	cl      *ClientLib
	targets map[target]*targetState
	mirrors map[SpaceID]SpaceID
	// reads recycles hedged-read records.
	reads simtime.FreeList[hedgedRead]

	cHedges *obs.Counter
	cWins   *obs.Counter
	cOpens  *obs.Counter
	cRedir  *obs.Counter
	cFast   *obs.Counter

	// Counters for tests and experiment reports.
	Hedges       uint64 // hedge legs fired
	HedgeWins    uint64 // hedge legs that beat the primary
	BreakerOpens uint64 // breaker open transitions
	Redirects    uint64 // reads sent straight to the mirror (breaker open)
	FastFails    uint64 // requests failed by the adaptive timeout
}

// target identifies one block target session.
type target struct{ host, volume string }

// targetState is one target's latency model and breaker, made together on
// its first completion.
type targetState struct {
	lat targetLatency
	brk policy.Breaker
}

// latency returns k's model, nil before k's first completion.
func (m *Mitigation) latency(k target) *targetLatency {
	if ts := m.targets[k]; ts != nil {
		return &ts.lat
	}
	return nil
}

// EnableMitigation turns on adaptive timeouts and latency observation for
// this client and returns the mitigation handle for hedging and breaker
// control. Calling it twice returns the same handle.
func (cl *ClientLib) EnableMitigation() *Mitigation {
	if cl.mit != nil {
		return cl.mit
	}
	rec := cl.cfg.Recorder
	mit := &Mitigation{
		cl:      cl,
		targets: make(map[target]*targetState),
		mirrors: make(map[SpaceID]SpaceID),
		cHedges: rec.Counter("core", "hedge_reads_total"),
		cWins:   rec.Counter("core", "hedge_wins_total"),
		cOpens:  rec.Counter("core", "hedge_breaker_opens_total"),
		cRedir:  rec.Counter("core", "hedge_redirects_total"),
		cFast:   rec.Counter("core", "hedge_fast_fails_total"),
	}
	cl.mit = mit
	cl.ini.AdaptiveTimeout = mit.adaptiveTimeout
	cl.ini.OnComplete = mit.observe
	return mit
}

// Mitigation returns the handle installed by EnableMitigation (nil if off).
func (cl *ClientLib) Mitigation() *Mitigation { return cl.mit }

// SetMirror registers b as a mirror copy of a (and vice versa): ReadHedged
// on either space may serve from the other. The caller is responsible for
// keeping the contents identical.
func (m *Mitigation) SetMirror(a, b SpaceID) {
	m.mirrors[a] = b
	m.mirrors[b] = a
}

// observe is the Initiator's OnComplete feed: it maintains the latency
// model and drives the breaker. A successful completion that took longer
// than the slow gate counts AGAINST the target — a disk that answers every
// request in 20x its normal time is failing, whatever its status codes say.
func (m *Mitigation) observe(host, volume string, rtt time.Duration, err error) {
	k := target{host, volume}
	ts := m.targets[k]
	if ts == nil {
		ts = &targetState{}
		m.targets[k] = ts
	}
	tl, br := &ts.lat, &ts.brk
	slow := err == nil && tl.warm() && rtt > tl.deadline()
	if err == nil {
		tl.rtoShift = 0 // the deadline was adequate; stop backing off
		if !slow {
			tl.observe(rtt)
			br.OnSuccess()
			return
		}
	} else {
		if tl.warm() {
			m.FastFails++
			m.cFast.Inc()
		}
		if tl.rtoShift < mitMaxRTOShift {
			tl.rtoShift++
		}
	}
	if br.OnFailure(m.cl.sched.Now()) {
		m.BreakerOpens++
		m.cOpens.Inc()
		m.cl.cfg.Recorder.Instant("core", "breaker-open", m.cl.name,
			obs.L("host", host), obs.L("volume", volume))
	}
}

// adaptiveTimeout is the Initiator's per-target deadline: the model's
// EWMA + 4*dev, backed off exponentially after timeouts, clamped to the
// static Timeout.
func (m *Mitigation) adaptiveTimeout(host, volume string) time.Duration {
	tl := m.latency(target{host, volume})
	if !tl.warm() {
		return 0 // static default
	}
	t := tl.deadline() << tl.rtoShift
	if max := m.cl.ini.Timeout; t > max {
		t = max
	}
	return t
}

// hedgeDelay is how long a read waits on the primary before the mirror leg
// fires: EWMA + 2*dev (roughly the p95-p99) of the FASTER of the two
// targets. Using the pair minimum matters: if the primary itself has gone
// gray, its own inflated model would push the hedge trigger out to exactly
// the latency hedging is meant to cut, while the healthy mirror's model
// keeps the delay anchored to what a good replica can do.
func (m *Mitigation) hedgeDelay(primary, mirror target) time.Duration {
	best := time.Duration(0)
	for _, k := range [2]target{primary, mirror} {
		tl := m.latency(k)
		if !tl.warm() {
			continue
		}
		if d := tl.ewma + 2*tl.dev; best == 0 || d < best {
			best = d
		}
	}
	if best == 0 {
		return mitDefaultHedge
	}
	if best < mitMinHedge {
		best = mitMinHedge
	}
	return best
}

// breakerOpen reports whether the target is refusing traffic right now. At
// most one request per cool-down is let through as a half-open probe (the
// caller sees "closed" for that request; its outcome decides the breaker's
// fate).
func (m *Mitigation) breakerOpen(host, volume string) bool {
	ts := m.targets[target{host, volume}]
	if ts == nil {
		return false
	}
	return ts.brk.Open(m.cl.sched.Now())
}

// ReadHedged reads from a mounted space with tail-latency hedging: if a
// mirror is registered and the primary doesn't answer within the hedge
// delay, a second read goes to the mirror and the first reply wins. With
// the primary's breaker open, the read skips straight to the mirror. If
// both fast paths fail, it falls back to the ClientLib's full retry/remount
// path so correctness never regresses below plain Read. Whichever leg wins,
// data is that leg's wire frame and, as with Read, valid only until done
// returns.
func (cl *ClientLib) ReadHedged(space SpaceID, off int64, length int, done func([]byte, error)) {
	m := cl.mit
	if m == nil {
		cl.Read(space, off, length, done)
		return
	}
	mirror, ok := m.mirrors[space]
	pm := cl.mounts[space]
	mm := cl.mounts[mirror]
	if !ok || pm == nil || !pm.mounted || mm == nil || !mm.mounted {
		cl.Read(space, off, length, done)
		return
	}
	h, fresh := m.reads.Get()
	if fresh {
		h.m = m
		h.onPrimary, h.onMirror, h.onFallback = h.primary, h.mirrored, h.fellBack
	}
	h.space, h.mirror, h.mm, h.off, h.length, h.done = space, mirror, mm, off, length, done
	if m.breakerOpen(pm.host, string(space)) {
		m.Redirects++
		m.cRedir.Inc()
		h.legsDown, h.refs = 1, 1 // the primary is skipped: the mirror is the last leg
		cl.ini.Read(mm.host, string(mirror), off, length, h.onMirror)
		return
	}
	h.refs = 2 // the primary leg and the hedge timer
	h.hedge = cl.sched.AfterR(m.hedgeDelay(target{pm.host, string(space)}, target{mm.host, string(mirror)}), h)
	cl.ini.Read(pm.host, string(space), off, length, h.onPrimary)
}

// hedgedRead is one ReadHedged call: the state its legs, hedge timer and
// fallback share, and the receiver of each. refs counts the callbacks still
// to come; the last one gives the record back for the next read, after the
// caller's done has returned.
type hedgedRead struct {
	m                *Mitigation
	space, mirror    SpaceID
	mm               *mount // the mirror's mount, read when its leg fires
	off              int64
	length           int
	done             func([]byte, error)
	finished, hedged bool
	legsDown         int
	hedge            *simtime.Event
	refs             int
	// The legs' and the fallback's completions, bound once per record.
	onPrimary, onMirror, onFallback func([]byte, error)
}

// unref drops one expected callback and recycles the record after the last.
func (h *hedgedRead) unref() {
	if h.refs--; h.refs > 0 {
		return
	}
	h.mm, h.done = nil, nil
	h.finished, h.hedged, h.legsDown = false, false, 0
	h.m.reads.Put(h)
}

func (h *hedgedRead) finish(data []byte, err error) {
	if h.finished {
		return
	}
	h.finished = true
	h.done(data, err)
}

func (h *hedgedRead) fallback() {
	if h.finished {
		return
	}
	h.refs++
	h.m.cl.Read(h.space, h.off, h.length, h.onFallback)
}

func (h *hedgedRead) fellBack(data []byte, err error) {
	h.finish(data, err)
	h.unref()
}

func (h *hedgedRead) legFailed() {
	if h.legsDown++; h.legsDown == 2 {
		h.fallback()
	}
}

func (h *hedgedRead) fireMirror() {
	m := h.m
	m.Hedges++
	m.cHedges.Inc()
	h.refs++
	m.cl.ini.Read(h.mm.host, string(h.mirror), h.off, h.length, h.onMirror)
}

// cancelHedge disarms the hedge timer, whose callback then never comes.
func (h *hedgedRead) cancelHedge() {
	h.hedge.Cancel()
	h.hedge.Release()
	h.hedge = nil
	h.refs--
}

// Fire is the hedge timer: the primary has not answered in time.
func (h *hedgedRead) Fire() {
	h.hedge.Release()
	h.hedge = nil
	if !h.finished {
		h.hedged = true
		h.fireMirror()
	}
	h.unref()
}

func (h *hedgedRead) primary(data []byte, err error) {
	switch {
	case err != nil && !h.hedged:
		h.cancelHedge()
		// Primary failed before the hedge timer: fire the mirror leg
		// immediately rather than waiting out the delay.
		h.legsDown++ // the primary leg is down
		h.hedged = true
		h.fireMirror()
	case err != nil:
		h.legFailed()
	default:
		if !h.hedged {
			h.cancelHedge()
		}
		h.finish(data, nil)
	}
	h.unref()
}

func (h *hedgedRead) mirrored(data []byte, err error) {
	if err != nil {
		h.legFailed()
	} else {
		if h.hedged && !h.finished { // a redirected read is no hedge
			h.m.HedgeWins++
			h.m.cWins.Inc()
		}
		h.finish(data, nil)
	}
	h.unref()
}
