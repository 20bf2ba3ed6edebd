package obs

import (
	"bytes"
	"testing"
	"time"
)

// buildPartitionRecorders produces a fixed pair of partition recorders with
// overlapping series and interleaved trace timestamps.
func buildPartitionRecorders() []*Recorder {
	a, b := NewRecorder(), NewRecorder()
	clockA := time.Duration(0)
	clockB := time.Duration(0)
	a.BindClock(func() time.Duration { return clockA })
	b.BindClock(func() time.Duration { return clockB })

	a.Counter("net", "sent").Add(3)
	b.Counter("net", "sent").Add(5)
	a.Gauge("disk", "spinning").Set(2)
	b.Gauge("disk", "spinning").Set(7)
	a.Histogram("rpc", "seconds").Observe(0.001)
	a.Histogram("rpc", "seconds").Observe(0.004)
	b.Histogram("rpc", "seconds").Observe(0.002)

	clockA = 5 * time.Millisecond
	idA := a.Instant("fleet", "boot", "events")
	clockB = 3 * time.Millisecond
	b.Instant("fleet", "boot", "events")
	clockA = 9 * time.Millisecond
	a.InstantCause("fleet", "follow", "events", idA)
	return []*Recorder{a, b}
}

func mergedOutput(t *testing.T) (string, string) {
	t.Helper()
	dst := NewRecorder()
	MergeRecorders(dst, buildPartitionRecorders()...)
	var m, tr bytes.Buffer
	if err := dst.Registry().WriteJSON(&m); err != nil {
		t.Fatal(err)
	}
	if err := dst.Tracer().WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	return m.String(), tr.String()
}

func TestMergeRecordersSumsSeries(t *testing.T) {
	dst := NewRecorder()
	dst.Counter("net", "sent").Add(100) // pre-existing dst state survives
	MergeRecorders(dst, buildPartitionRecorders()...)
	if got := dst.Counter("net", "sent").Value(); got != 108 {
		t.Errorf("merged counter = %d, want 108", got)
	}
	if got := dst.Gauge("disk", "spinning").Value(); got != 9 {
		t.Errorf("merged gauge = %v, want 9 (sum of partitions)", got)
	}
	h := dst.Histogram("rpc", "seconds")
	if h.Count() != 3 {
		t.Errorf("merged histogram count = %d, want 3", h.Count())
	}
	if got, want := h.Sum(), 0.007; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("merged histogram sum = %v, want %v", got, want)
	}
}

func TestMergeRecordersDeterministic(t *testing.T) {
	m1, t1 := mergedOutput(t)
	for i := 0; i < 3; i++ {
		m2, t2 := mergedOutput(t)
		if m1 != m2 {
			t.Fatal("merged metrics JSON not byte-stable across merges")
		}
		if t1 != t2 {
			t.Fatal("merged trace JSON not byte-stable across merges")
		}
	}
}

func TestMergeTracerOrdersAndRemapsIDs(t *testing.T) {
	dst := NewRecorder()
	MergeRecorders(dst, buildPartitionRecorders()...)
	tr := dst.Tracer()
	if len(tr.ring) != 3 {
		t.Fatalf("merged tracer has %d events, want 3", len(tr.ring))
	}
	// Events must be time-ordered with IDs assigned in that order: the 3ms
	// event from partition B sorts ahead of partition A's 5ms and 9ms ones,
	// and the cause link must follow the remapped ID of the 5ms event.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ts":3000`, `"ts":5000`, `"ts":9000`, `"cause":`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("merged trace missing %s:\n%s", want, out)
		}
	}
}

func TestMergeRecordersNilSafe(t *testing.T) {
	MergeRecorders(nil, NewRecorder())
	dst := NewRecorder()
	MergeRecorders(dst, nil, NewRecorder(), nil)
}
