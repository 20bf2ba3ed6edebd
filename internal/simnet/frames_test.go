package simnet

import (
	"bytes"
	"testing"

	"ustore/internal/obs"
)

// TestFrameClassKeyedOnPayload: a power-of-two payload plus a protocol header
// must land in the payload's own class, not the next one up.
func TestFrameClassKeyedOnPayload(t *testing.T) {
	var f FrameList
	for _, payload := range []int{4 << 10, 64 << 10, 1 << 20, 4 << 20} {
		buf := f.Get(20 + payload)
		if len(buf) != 20+payload {
			t.Fatalf("payload %d: len %d, want %d", payload, len(buf), 20+payload)
		}
		if cap(buf) != payload+FrameHeadroom {
			t.Fatalf("payload %d: cap %d, want %d (not the next class)", payload, cap(buf), payload+FrameHeadroom)
		}
	}
	// Small and odd sizes share the smallest class that holds them.
	if got := cap(f.Get(100)); got != 4<<10+FrameHeadroom {
		t.Fatalf("100-byte frame: cap %d", got)
	}
	if got := cap(f.Get(20 + 5000)); got != 8<<10+FrameHeadroom {
		t.Fatalf("5000-byte payload: cap %d", got)
	}
	// Beyond the largest class: served, never pooled.
	huge := f.Get(1<<maxFrameShift + FrameHeadroom + 1)
	f.Put(huge)
	for c := range f.classes {
		if len(f.classes[c]) != 0 {
			t.Fatalf("class %d kept an oversized frame", c)
		}
	}
}

// TestFrameListRecyclesLIFO: what Get returns is a function of the Get/Put
// sequence alone.
func TestFrameListRecyclesLIFO(t *testing.T) {
	var f FrameList
	a := f.Get(20 + 1<<20)
	b := f.Get(20 + 1<<20)
	a[0], b[0] = 'a', 'b'
	f.Put(a)
	f.Put(b)
	if got := f.Get(20 + 1<<20); &got[0] != &b[0] {
		t.Fatal("Get did not return the most recently released frame")
	}
	if got := f.Get(20 + 1<<19 + 1000); &got[0] != &a[0] || len(got) != 20+1<<19+1000 {
		t.Fatal("a shorter frame of the same class did not reuse the released buffer")
	}
	if got := f.Get(20 + 1<<20); &got[0] == &a[0] || &got[0] == &b[0] {
		t.Fatal("empty class handed out a frame that is still in use")
	}
}

// TestFrameListBounded: a burst of releases keeps at most the class bound;
// foreign buffers are never kept.
func TestFrameListBounded(t *testing.T) {
	var f FrameList
	const size = 20 + 4<<20
	c := frameClass(size)
	limit := frameClassLimit(c)
	var burst [][]byte
	for i := 0; i < limit+5; i++ {
		burst = append(burst, f.Get(size))
	}
	for _, b := range burst {
		f.Put(b)
	}
	if got := len(f.classes[c]); got != limit {
		t.Fatalf("class kept %d frames, bound is %d", got, limit)
	}
	if limit*(4<<20) > frameClassBytes {
		t.Fatalf("4 MiB class may keep %d MiB", limit*4)
	}
	f.Put(make([]byte, size)) // not from Get: capacity is not a class capacity
	if got := len(f.classes[c]); got != limit {
		t.Fatalf("foreign buffer was kept (%d frames)", got)
	}
}

// TestDuplicateDeliveryOwnsItsBytes: a duplicated []byte delivery is a
// separate buffer, so the first receiver may rewrite (or recycle) its bytes
// without the second seeing it; the dup counter still counts one per
// duplicated send.
func TestDuplicateDeliveryOwnsItsBytes(t *testing.T) {
	s, n := newNet(t)
	rec := obs.NewRecorder()
	n.SetRecorder(rec)
	ownMachines(n, "a", "b")
	n.SetMachineDupRate("mach-a", "mach-b", 1.0)
	want := []byte("retransmitted frame")
	var got [][]byte
	n.Node("b").Handle(func(m Message) {
		raw := m.Payload.([]byte)
		got = append(got, append([]byte(nil), raw...))
		for i := range raw {
			raw[i] = 0xDB // what a recycled frame looks like to anyone else holding it
		}
	})
	n.Node("a").Send("b", append([]byte(nil), want...), len(want))
	s.Run()
	if len(got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(got))
	}
	for i, g := range got {
		if !bytes.Equal(g, want) {
			t.Fatalf("delivery %d saw %q, want %q", i, g, want)
		}
	}
	if v := rec.Counter("simnet", "dup_deliveries_total").Value(); v != 1 {
		t.Fatalf("dup_deliveries_total = %d, want 1", v)
	}
	// Non-byte payloads are passed through as before.
	n.Node("b").Handle(func(m Message) {
		if m.Payload != "ctl" {
			t.Errorf("payload %v", m.Payload)
		}
	})
	n.Node("a").Send("b", "ctl", 0)
	s.Run()
	if v := rec.Counter("simnet", "dup_deliveries_total").Value(); v != 2 {
		t.Fatalf("dup_deliveries_total = %d, want 2", v)
	}
}
