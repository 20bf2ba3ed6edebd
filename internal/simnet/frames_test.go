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
	for _, payload := range []int{256, 4 << 10, 64 << 10, 1 << 20, 4 << 20} {
		fr := f.Get(20 + payload)
		if len(fr.B) != 20+payload {
			t.Fatalf("payload %d: len %d, want %d", payload, len(fr.B), 20+payload)
		}
		if cap(fr.B) != payload+FrameHeadroom {
			t.Fatalf("payload %d: cap %d, want %d (not the next class)", payload, cap(fr.B), payload+FrameHeadroom)
		}
	}
	// Small and odd sizes share the smallest class that holds them: a
	// request frame or a bare reply lands in the 256 B class.
	if got := cap(f.Get(100).B); got != 256+FrameHeadroom {
		t.Fatalf("100-byte frame: cap %d", got)
	}
	if got := cap(f.Get(20 + 5000).B); got != 8<<10+FrameHeadroom {
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
// sequence alone, and a buffer comes back with its own record.
func TestFrameListRecyclesLIFO(t *testing.T) {
	var f FrameList
	a := f.Get(20 + 1<<20)
	b := f.Get(20 + 1<<20)
	a.B[0], b.B[0] = 'a', 'b'
	f.Put(a)
	f.Put(b)
	if got := f.Get(20 + 1<<20); got != b || &got.B[0] != &b.B[0] {
		t.Fatal("Get did not return the most recently released frame")
	}
	if got := f.Get(20 + 1<<19 + 1000); got != a || len(got.B) != 20+1<<19+1000 {
		t.Fatal("a shorter frame of the same class did not reuse the released frame")
	}
	if got := f.Get(20 + 1<<20); got == a || got == b || &got.B[0] == &a.B[0] || &got.B[0] == &b.B[0] {
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
	var burst []*Frame
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
	f.Put(&Frame{B: make([]byte, size)}) // not from Get: capacity is not a class capacity
	if got := len(f.classes[c]); got != limit {
		t.Fatalf("foreign buffer was kept (%d frames)", got)
	}
}

// TestDuplicateDeliveryOwnsItsBytes: a duplicated *Frame delivery is a
// separate frame taken from the sender's list, so the first receiver may
// rewrite (or recycle) its bytes without the second seeing it; the dup
// counter still counts one per duplicated send.
func TestDuplicateDeliveryOwnsItsBytes(t *testing.T) {
	s, n := newNet(t)
	rec := obs.NewRecorder()
	n.SetRecorder(rec)
	ownMachines(n, "a", "b")
	n.SetMachineDupRate("mach-a", "mach-b", 1.0)
	want := []byte("retransmitted frame")
	var got [][]byte
	var frames []*Frame
	n.Node("b").Handle(func(m Message) {
		fr := m.Payload.(*Frame)
		frames = append(frames, fr)
		got = append(got, append([]byte(nil), fr.B...))
		for i := range fr.B {
			fr.B[i] = 0xDB // what a recycled frame looks like to anyone else holding it
		}
	})
	fr := n.Frames().Get(len(want))
	copy(fr.B, want)
	n.Node("a").Send(n.Addr("b"), fr, len(want))
	s.Run()
	if len(got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(got))
	}
	for i, g := range got {
		if !bytes.Equal(g, want) {
			t.Fatalf("delivery %d saw %q, want %q", i, g, want)
		}
	}
	if frames[0] == frames[1] || &frames[0].B[0] == &frames[1].B[0] {
		t.Fatal("both deliveries carried the same frame")
	}
	if cap(frames[0].B) != cap(frames[1].B) {
		t.Fatalf("the copy is not a pooled frame of the original's class: cap %d vs %d", cap(frames[0].B), cap(frames[1].B))
	}
	if v := rec.Counter("simnet", "dup_deliveries_total").Value(); v != 1 {
		t.Fatalf("dup_deliveries_total = %d, want 1", v)
	}
	// Non-frame payloads are passed through as before.
	n.Node("b").Handle(func(m Message) {
		if m.Payload != "ctl" {
			t.Errorf("payload %v", m.Payload)
		}
	})
	n.Node("a").Send(n.Addr("b"), "ctl", 0)
	s.Run()
	if v := rec.Counter("simnet", "dup_deliveries_total").Value(); v != 2 {
		t.Fatalf("dup_deliveries_total = %d, want 2", v)
	}

	// A lent body is copied into the retransmission, behind the header:
	// the copy owns all its bytes and holds no lease, and the lease is
	// released once, when the original is put.
	var lent []*Frame
	n.Node("b").Handle(func(m Message) { lent = append(lent, m.Payload.(*Frame)) })
	lease := &countingLease{}
	fr = n.Frames().Get(3)
	copy(fr.B, "hdr")
	fr.Body, fr.Lease = []byte("lent body"), lease
	n.Node("a").Send(n.Addr("b"), fr, 3+len(fr.Body))
	s.Run()
	if len(lent) != 2 {
		t.Fatalf("lent-body deliveries = %d, want 2", len(lent))
	}
	cp := lent[0]
	if cp == fr {
		cp = lent[1]
	}
	if cp.Body != nil || cp.Lease != nil || string(cp.B) != "hdrlent body" {
		t.Fatalf("retransmission of a lent frame: B %q, body %q, lease %v", cp.B, cp.Body, cp.Lease)
	}
	n.Frames().Put(cp)
	n.Frames().Put(fr)
	if lease.released != 1 || fr.Body != nil || fr.Lease != nil {
		t.Fatalf("lease released %d times, want 1; the put frame kept body %q", lease.released, fr.Body)
	}
}

// countingLease counts its releases.
type countingLease struct{ released int }

func (l *countingLease) Release() { l.released++ }
