package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestBucketBoundaries pins the bucket mapping at and around every bound:
// values exactly on a bound are inclusive (Prometheus "le" semantics),
// values just above roll to the next bucket, and out-of-range values
// clamp to the first / overflow bucket.
func TestBucketBoundaries(t *testing.T) {
	bounds := HistogramBounds()
	if len(bounds) != HistBuckets {
		t.Fatalf("HistogramBounds returned %d bounds, want %d", len(bounds), HistBuckets)
	}
	if bounds[0] != HistMinBound {
		t.Fatalf("first bound = %g, want %g", bounds[0], HistMinBound)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] != bounds[i-1]*2 {
			t.Fatalf("bound[%d] = %g, want 2*bound[%d] = %g", i, bounds[i], i-1, bounds[i-1]*2)
		}
	}

	cases := []struct {
		v    float64
		want int
	}{
		{-1, 0},
		{0, 0},
		{HistMinBound / 2, 0},
		{HistMinBound, 0},                    // exactly on first bound: inclusive
		{math.Nextafter(HistMinBound, 1), 1}, // just above
		{2 * HistMinBound, 1},                // exactly on second bound
		{math.Nextafter(2*HistMinBound, 1), 2},
		{3 * HistMinBound, 2},
		{4 * HistMinBound, 2},
		{bounds[HistBuckets-1], HistBuckets - 1}, // last finite bound, inclusive
		{math.Nextafter(bounds[HistBuckets-1], math.Inf(1)), HistBuckets}, // overflow
		{1e18, HistBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}

	// Every bound value must land in its own bucket (exhaustive sweep).
	for i, b := range bounds {
		if got := bucketIndex(b); got != i {
			t.Errorf("bucketIndex(bound[%d]=%g) = %d, want %d", i, b, got, i)
		}
		if i+1 < len(bounds) {
			mid := b * 1.5
			if got := bucketIndex(mid); got != i+1 {
				t.Errorf("bucketIndex(%g) = %d, want %d", mid, got, i+1)
			}
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	h := &Histogram{}
	h.Observe(0.5e-6)
	h.Observe(1e-6)
	h.Observe(3e-6)
	h.ObserveDuration(2 * time.Millisecond)
	h.Observe(1e12) // overflow
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	wantSum := 0.5e-6 + 1e-6 + 3e-6 + 0.002 + 1e12
	if h.Sum() != wantSum {
		t.Fatalf("Sum = %g, want %g", h.Sum(), wantSum)
	}
	if h.buckets[0] != 2 {
		t.Errorf("bucket 0 = %d, want 2", h.buckets[0])
	}
	if h.buckets[HistBuckets] != 1 {
		t.Errorf("+Inf bucket = %d, want 1", h.buckets[HistBuckets])
	}
}

// TestNilSafety exercises every method on nil handles; any panic fails.
func TestNilSafety(t *testing.T) {
	var rec *Recorder
	rec.BindClock(func() time.Duration { return 0 })
	rec.Counter("x", "y").Inc()
	rec.Gauge("x", "y").Set(1)
	rec.Histogram("x", "y").Observe(1)
	rec.Begin("x", "y", "").End()
	rec.Instant("x", "y", "")
	rec.InstantCause("x", "y", "", 3)
	if rec.Registry() != nil || rec.Tracer() != nil {
		t.Fatal("nil recorder should return nil registry/tracer")
	}

	var c *Counter
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Fatal("nil counter value != 0")
	}
	var g *Gauge
	g.Set(3)
	_ = g.Value()
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	_ = h.Count()
	_ = h.Sum()
	var sp *Span
	sp.End()
	var tr *Tracer
	tr.BindClock(nil)
	tr.Begin("a", "b", "").End()
	tr.Instant("a", "b", "")
	_ = tr.Dropped()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var reg *Registry
	reg.Counter("a", "b").Inc()
	_ = reg.Snapshot()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

// populate fills a registry the same way twice to check determinism.
func populate(rec *Recorder) {
	rec.Counter("disk", "ios_total", L("op", "read")).Add(7)
	rec.Counter("disk", "ios_total", L("op", "write")).Add(3)
	rec.Gauge("usb", "link_utilization_ratio", L("link", "hub0")).Set(0.75)
	h := rec.Histogram("disk", "io_seconds")
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 1e-4)
	}
	rec.Counter("core", "failovers_total").Inc()
}

// TestSnapshotDeterminism: two registries populated identically produce
// byte-identical JSON and Prometheus encodings, regardless of handle
// creation interleaving.
func TestSnapshotDeterminism(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	populate(a)
	// Populate b in a different creation order; snapshots sort.
	b.Counter("core", "failovers_total")
	b.Histogram("disk", "io_seconds")
	populate(b)

	var ja, jb bytes.Buffer
	if err := a.Registry().WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.Registry().WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatalf("JSON snapshots differ:\n%s\n---\n%s", ja.String(), jb.String())
	}

	var pa, pb bytes.Buffer
	if err := a.Registry().WritePrometheus(&pa); err != nil {
		t.Fatal(err)
	}
	if err := b.Registry().WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa.Bytes(), pb.Bytes()) {
		t.Fatalf("Prometheus snapshots differ:\n%s\n---\n%s", pa.String(), pb.String())
	}

	// The JSON must round-trip and carry the expected series.
	var snap Snapshot
	if err := json.Unmarshal(ja.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	found := false
	for _, m := range snap.Metrics {
		if m.Name == "disk_io_seconds" && m.Type == "histogram" && m.Count == 100 {
			found = true
			if m.Buckets[len(m.Buckets)-1].LE != "+Inf" {
				t.Errorf("last bucket LE = %q, want +Inf", m.Buckets[len(m.Buckets)-1].LE)
			}
			if m.Buckets[len(m.Buckets)-1].Cumulative != 100 {
				t.Errorf("+Inf cumulative = %d, want 100", m.Buckets[len(m.Buckets)-1].Cumulative)
			}
		}
	}
	if !found {
		t.Fatal("disk_io_seconds histogram missing from snapshot")
	}
}

// TestRegistryKindMismatch: asking for an existing series under a
// different kind yields a nil (no-op) handle instead of corrupting it.
func TestRegistryKindMismatch(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a", "b").Add(5)
	if g := reg.Gauge("a", "b"); g != nil {
		t.Fatal("kind mismatch should return nil handle")
	}
	if reg.Counter("a", "b").Value() != 5 {
		t.Fatal("original counter clobbered")
	}
}

func TestLabelsCanonicalized(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("a", "b", L("x", "1"), L("y", "2"))
	c2 := reg.Counter("a", "b", L("y", "2"), L("x", "1"))
	c1.Inc()
	c2.Inc()
	if c1.Value() != 2 {
		t.Fatalf("label order created distinct series: %d", c1.Value())
	}
}
