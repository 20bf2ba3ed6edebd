package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer records the harness-side spans of a traced run: one span around
// each call into a layer's public API, kept in memory and written as Chrome
// trace JSON when the run ends. A nil tracer records nothing, so untraced
// repetitions pay no cost.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of open spans, innermost last
}

type span struct {
	layer, name string
	start, end  time.Duration
	parent      int // index of the enclosing span, -1 at top level
}

type spanRef struct {
	t *tracer
	i int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(layer, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{layer: layer, name: name, start: time.Since(t.t0), parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return spanRef{t, i}
}

func (r spanRef) end() {
	if r.t == nil {
		return
	}
	r.t.spans[r.i].end = time.Since(r.t.t0)
	for n := len(r.t.open) - 1; n >= 0; n-- {
		if r.t.open[n] == r.i {
			r.t.open = r.t.open[:n]
			break
		}
	}
}

// selfTime is a span's duration minus the part its child spans cover.
func (t *tracer) selfTime(i int) time.Duration {
	d := t.spans[i].end - t.spans[i].start
	for _, c := range t.spans {
		if c.parent == i {
			d -= c.end - c.start
		}
	}
	return d
}

type chromeSpan struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write dumps the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto).
func (t *tracer) write(path string) error {
	evs := make([]chromeSpan, 0, len(t.spans))
	for i, s := range t.spans {
		evs = append(evs, chromeSpan{
			Name: s.name, Cat: s.layer, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"self_us": float64(t.selfTime(i)) / 1e3, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
