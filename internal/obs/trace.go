package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// DefaultTraceCap is the ring-buffer capacity of a Recorder's tracer. It is
// sized so a day-scale simulated chaos run keeps its boot-time events (USB
// enumeration, first elections); longer runs overwrite oldest-first and
// report the loss in the dump's dropped_events metadata.
const DefaultTraceCap = 1 << 18

// Tracer records spans and instant events into a fixed-capacity ring
// buffer, overwriting the oldest events when full. Timestamps come from a
// bound simulated clock; until BindClock is called they read zero. All
// methods are nil-safe.
type Tracer struct {
	mu      sync.Mutex
	clock   func() time.Duration
	cap     int
	ring    []traceEvent
	next    int    // ring write cursor
	total   uint64 // events ever appended (total - len(ring) = dropped)
	nextID  uint64 // event/span ID allocator (first-use order; deterministic)
	started uint64 // spans begun
}

type traceEvent struct {
	id    uint64
	seq   uint64 // append order, for stable sorting at equal ts
	cat   string // component; becomes the trace "process"
	name  string
	track string // becomes the trace "thread"
	phase byte   // 'X' complete, 'i' instant
	ts    time.Duration
	dur   time.Duration // 'X' only
	cause uint64        // 0 = none
	args  []Label
}

// NewTracer creates a tracer holding at most capacity events. The ring
// grows as events arrive: a fleet makes one recorder per partition, and
// most of them never see more than a few hundred events.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{cap: capacity}
}

// BindClock sets the simulated-time source.
func (t *Tracer) BindClock(clock func() time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
}

func (t *Tracer) now() time.Duration {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// append stores ev in the ring, overwriting the oldest event when full.
// Caller holds t.mu.
func (t *Tracer) append(ev traceEvent) {
	ev.seq = t.total
	t.total++
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, ev)
		t.next = len(t.ring) % t.cap
		return
	}
	t.ring[t.next] = ev
	t.next = (t.next + 1) % t.cap
}

// Span is an open interval on a component timeline. End closes it and
// emits one complete ('X') event. Nil-safe.
type Span struct {
	t     *Tracer
	id    uint64
	cat   string
	name  string
	track string
	start time.Duration
	args  []Label
}

// Begin opens a span. cat is the component, track groups events into rows
// (chrome://tracing threads).
func (t *Tracer) Begin(cat, name, track string, args ...Label) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.started++
	return &Span{t: t, id: t.nextID, cat: cat, name: name, track: track, start: t.now(), args: args}
}

// End closes the span, appending extra args to those given at Begin.
func (s *Span) End(args ...Label) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	all := s.args
	if len(args) > 0 {
		all = append(append([]Label{}, s.args...), args...)
	}
	t.append(traceEvent{
		id: s.id, cat: s.cat, name: s.name, track: s.track,
		phase: 'X', ts: s.start, dur: now - s.start, args: all,
	})
}

// Instant records a zero-duration event; returns its ID for cause links.
func (t *Tracer) Instant(cat, name, track string, args ...Label) uint64 {
	return t.InstantCause(cat, name, track, 0, args...)
}

// InstantCause records an instant event linked to a causing event ID
// (0 = no cause). The link is emitted into the event's args as "cause".
func (t *Tracer) InstantCause(cat, name, track string, cause uint64, args ...Label) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.append(traceEvent{
		id: t.nextID, cat: cat, name: name, track: track,
		phase: 'i', ts: t.now(), cause: cause, args: args,
	})
	return t.nextID
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.ring))
}

// chromeEvent is one entry of the Chrome trace_event JSON array. Field
// order is fixed by the struct, so encoding is deterministic.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds of simulated time
	Dur  *float64          `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"` // instant scope
	ID   string            `json:"id,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]uint64 `json:"metadata,omitempty"`
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChromeTrace dumps the buffered events as Chrome trace_event JSON
// (load via chrome://tracing or ui.perfetto.dev). Components become
// processes and tracks become threads, both named via 'M' metadata
// events; IDs are assigned in sorted order so output is deterministic.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	t.mu.Lock()
	events := make([]traceEvent, len(t.ring))
	copy(events, t.ring)
	dropped := t.total - uint64(len(t.ring))
	t.mu.Unlock()

	sort.Slice(events, func(i, j int) bool {
		if events[i].ts != events[j].ts {
			return events[i].ts < events[j].ts
		}
		return events[i].seq < events[j].seq
	})

	// Deterministic pid/tid assignment: sorted component names, then
	// sorted track names within a component.
	pids := map[string]int{}
	tids := map[string]map[string]int{}
	for _, ev := range events {
		if _, ok := tids[ev.cat]; !ok {
			tids[ev.cat] = map[string]int{}
		}
		tids[ev.cat][ev.track] = 0
	}
	cats := make([]string, 0, len(tids))
	for c := range tids {
		cats = append(cats, c)
	}
	sort.Strings(cats)

	out := chromeTrace{DisplayTimeUnit: "ms"}
	if dropped > 0 {
		out.Metadata = map[string]uint64{"dropped_events": dropped}
	}
	for pi, c := range cats {
		pid := pi + 1
		pids[c] = pid
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]string{"name": c},
		})
		tracks := make([]string, 0, len(tids[c]))
		for tr := range tids[c] {
			tracks = append(tracks, tr)
		}
		sort.Strings(tracks)
		for ti, tr := range tracks {
			tids[c][tr] = ti + 1
			name := tr
			if name == "" {
				name = c
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: ti + 1,
				Args: map[string]string{"name": name},
			})
		}
	}

	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.name,
			Cat:  ev.cat,
			Ph:   string(ev.phase),
			Ts:   micros(ev.ts),
			Pid:  pids[ev.cat],
			Tid:  tids[ev.cat][ev.track],
		}
		if ev.phase == 'X' {
			d := micros(ev.dur)
			ce.Dur = &d
		}
		if ev.phase == 'i' {
			ce.S = "t"
		}
		var args map[string]string
		if len(ev.args) > 0 || ev.cause != 0 {
			args = make(map[string]string, len(ev.args)+2)
			for _, a := range ev.args {
				args[a.Key] = a.Value
			}
			if ev.cause != 0 {
				args["cause"] = formatUint(ev.cause)
			}
		}
		if args == nil {
			args = map[string]string{}
		}
		args["id"] = formatUint(ev.id)
		ce.Args = args
		out.TraceEvents = append(out.TraceEvents, ce)
	}

	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }
