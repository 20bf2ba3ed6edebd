package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
	"unsafe"
)

type fakeClock struct{ now time.Duration }

func (c *fakeClock) clock() time.Duration { return c.now }

func TestTracerSpansAndInstants(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(128)
	tr.BindClock(clk.clock)

	clk.now = 5 * time.Millisecond
	sp := tr.Begin("disk", "io", "disk01", L("op", "read"))
	clk.now = 9 * time.Millisecond
	sp.End(L("bytes", "4096"))
	id := tr.Instant("chaos", "fault", "", L("kind", "disk-fail"))
	tr.InstantCause("core", "failover-start", "h1", id)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	var span, instant, caused map[string]any
	for _, ev := range out.TraceEvents {
		switch ev["name"] {
		case "io":
			span = ev
		case "fault":
			instant = ev
		case "failover-start":
			caused = ev
		}
	}
	if span == nil || instant == nil || caused == nil {
		t.Fatalf("missing events in dump: %s", buf.String())
	}
	if span["ph"] != "X" || span["ts"].(float64) != 5000 || span["dur"].(float64) != 4000 {
		t.Errorf("span event wrong: %v", span)
	}
	args := span["args"].(map[string]any)
	if args["op"] != "read" || args["bytes"] != "4096" {
		t.Errorf("span args wrong: %v", args)
	}
	if instant["ph"] != "i" {
		t.Errorf("instant phase wrong: %v", instant)
	}
	cargs := caused["args"].(map[string]any)
	if cargs["cause"] != instant["args"].(map[string]any)["id"] {
		t.Errorf("cause link broken: caused=%v instant=%v", caused, instant)
	}
	// pid separation: different components get different pids.
	if span["pid"] == instant["pid"] {
		t.Errorf("disk and chaos events share a pid: %v vs %v", span["pid"], instant["pid"])
	}
}

func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Instant("c", "e", "")
	}
	if len(tr.ring) != 4 {
		t.Fatalf("Len = %d, want 4", len(tr.ring))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any  `json:"traceEvents"`
		Metadata    map[string]uint64 `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Metadata["dropped_events"] != 6 {
		t.Fatalf("dropped_events metadata = %d, want 6", out.Metadata["dropped_events"])
	}
	// 4 kept events survive: the newest IDs 7..10.
	var ids []string
	for _, ev := range out.TraceEvents {
		if ev["ph"] == "i" {
			ids = append(ids, ev["args"].(map[string]any)["id"].(string))
		}
	}
	want := []string{"7", "8", "9", "10"}
	if len(ids) != len(want) {
		t.Fatalf("kept %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("kept %v, want %v", ids, want)
		}
	}
}

// TestTracerRingGrowsOnDemand pins the cost of an idle recorder: a fleet
// makes one per partition, so a default-capacity ring must not be paid for
// up front (it was 31.5 MB each, ~2 GB per 64-unit fleet), and growing on
// demand must still wrap at the capacity asked for.
func TestTracerRingGrowsOnDemand(t *testing.T) {
	rec := NewRecorder()
	for i := 0; i < 10; i++ {
		rec.Instant("c", "e", "")
	}
	tr := rec.Tracer()
	if retained := uintptr(cap(tr.ring)) * unsafe.Sizeof(traceEvent{}); retained >= 64<<10 {
		t.Fatalf("a recorder holding 10 events retains %d bytes of ring, want < 64 KiB", retained)
	}
	if len(tr.ring) != 10 || tr.Dropped() != 0 {
		t.Fatalf("Len = %d, Dropped = %d, want 10 and 0", len(tr.ring), tr.Dropped())
	}

	small := NewTracer(8)
	var last uint64
	for i := 0; i < 20; i++ {
		last = small.Instant("c", "e", "")
	}
	if len(small.ring) != 8 || small.Dropped() != 12 {
		t.Fatalf("cap-8 tracer after 20 events: Len = %d, Dropped = %d, want 8 and 12", len(small.ring), small.Dropped())
	}
	kept := map[uint64]bool{}
	for _, ev := range small.ring {
		kept[ev.id] = true
	}
	for id := last - 7; id <= last; id++ {
		if !kept[id] {
			t.Fatalf("cap-8 tracer lost event %d of the last 8 (kept %v)", id, kept)
		}
	}
}

func TestTraceDeterminism(t *testing.T) {
	emit := func() []byte {
		clk := &fakeClock{}
		tr := NewTracer(64)
		tr.BindClock(clk.clock)
		for i := 0; i < 10; i++ {
			clk.now = time.Duration(i) * time.Second
			sp := tr.Begin("usb", "enumerate", "h1")
			clk.now += 350 * time.Millisecond
			sp.End()
			tr.Instant("simnet", "drop", "net")
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Fatal("identical event sequences produced different trace bytes")
	}
}
