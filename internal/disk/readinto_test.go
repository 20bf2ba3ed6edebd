package disk

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ustore/internal/simtime"
)

// Property: ReadInto into a dirty buffer returns exactly what ReadAt returns
// — and what a flat byte array would — for reads that start and end anywhere:
// inside a chunk, on a chunk boundary, across several chunks, over holes
// between written chunks, and wholly inside a hole. The 0xFF prefill is what
// a recycled buffer looks like; a hole that is skipped instead of zero-filled
// shows up as 0xFF.
func TestPropertyReadIntoMatchesReadAt(t *testing.T) {
	const window = 24 * chunkSize
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 40; round++ {
		st := NewStore()
		ref := make([]byte, window)
		// Sparse writes: most of the window stays a hole, and written
		// extents straddle chunk boundaries.
		for w := rng.Intn(6); w > 0; w-- {
			off := rng.Intn(window)
			n := 1 + rng.Intn(3*chunkSize)
			if off+n > window {
				n = window - off
			}
			data := make([]byte, n)
			rng.Read(data)
			st.WriteAt(int64(off), data)
			copy(ref[off:], data)
		}
		for r := 0; r < 60; r++ {
			var off, n int
			switch rng.Intn(4) {
			case 0: // chunk-aligned, whole chunks
				off = rng.Intn(20) * chunkSize
				n = (1 + rng.Intn(4)) * chunkSize
			case 1: // ends exactly on a boundary
				off = rng.Intn(window - chunkSize)
				n = chunkSize - off%chunkSize
			case 2: // tiny
				off = rng.Intn(window - 16)
				n = 1 + rng.Intn(16)
			default: // anything
				off = rng.Intn(window)
				n = 1 + rng.Intn(window-off)
			}
			dst := bytes.Repeat([]byte{0xFF}, n+2)
			st.ReadInto(int64(off), dst[1:n+1])
			if dst[0] != 0xFF || dst[n+1] != 0xFF {
				t.Fatalf("round %d: ReadInto(%d, %d bytes) wrote outside its buffer", round, off, n)
			}
			if !bytes.Equal(dst[1:n+1], ref[off:off+n]) {
				t.Fatalf("round %d: ReadInto(%d, %d bytes) differs from the flat array", round, off, n)
			}
		}
	}
}

// countingDest hands out one buffer and counts how often it was asked.
type countingDest struct {
	buf   []byte
	calls int
}

func (c *countingDest) ReadBuffer(size int) []byte {
	c.calls++
	return c.buf[:size]
}

// The destination is asked for when the disk services a read, never while
// the read waits (a storm queues thousands of 4 MiB reads; a buffer each at
// submit time is gigabytes), never for a read that fails before the medium,
// and Done receives exactly the destination's buffer.
func TestReadDestAskedAtServiceTime(t *testing.T) {
	s, d := newDisk(t)
	d.Store().WriteAt(4096, []byte("cold bytes"))
	d.SpinDown()

	dest := &countingDest{buf: bytes.Repeat([]byte{0xFF}, 64)}
	const reads = 5
	var got [][]byte
	for i := 0; i < reads; i++ {
		d.Submit(&Request{
			Op:     Op{Read: true, Size: 10, Pattern: Random},
			Offset: 4096,
			Dest:   dest,
			Done: func(data []byte, err error) {
				if err != nil {
					t.Errorf("read: %v", err)
				}
				if &data[0] != &dest.buf[0] {
					t.Error("Done did not receive the destination's buffer")
				}
				got = append(got, append([]byte(nil), data...))
			},
		})
	}
	if dest.calls != 0 {
		t.Fatalf("destination asked %d times at submit", dest.calls)
	}
	s.RunFor(d.Params().SpinUpTime / 2)
	if dest.calls != 0 {
		t.Fatalf("destination asked %d times while the disk was still spinning up", dest.calls)
	}
	s.Run()
	if dest.calls != reads || len(got) != reads {
		t.Fatalf("destination asked %d times, %d completions, want %d", dest.calls, len(got), reads)
	}
	for _, g := range got {
		if string(g) != "cold bytes" {
			t.Fatalf("read %q", g)
		}
	}

	// A read that fails before reaching the medium takes no buffer.
	d.PowerOff()
	var offErr error
	d.Submit(&Request{Op: Op{Read: true, Size: 10}, Offset: 4096, Dest: dest,
		Done: func(_ []byte, err error) { offErr = err }})
	s.Run()
	if offErr == nil || dest.calls != reads {
		t.Fatalf("powered-off read: err=%v, destination calls %d", offErr, dest.calls)
	}
}

// Regression: pump used to pop with queue = queue[1:] and leave the slot
// set, so every completed request — payload and callbacks — stayed reachable
// through the queue's backing array for as long as the disk lived.
func TestDrainedQueueReleasesRequests(t *testing.T) {
	s, d := newDisk(t)
	const n, size = 64, 1 << 20
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	done := 0
	for i := 0; i < n; i++ {
		// Same offset every time: the store ends up holding 1 MiB, so
		// whatever else stays alive is the queue's doing.
		d.Submit(&Request{
			Op:     Op{Read: false, Size: size, Pattern: Sequential},
			Offset: 0,
			Data:   make([]byte, size),
			Done:   func([]byte, error) { done++ },
		})
	}
	s.Run()
	if done != n {
		t.Fatalf("completed %d of %d writes", done, n)
	}
	after := heap()
	runtime.KeepAlive(d)
	if held := int64(after) - int64(before); held > n*size/4 {
		t.Fatalf("heap holds %d MiB after draining %d queued 1 MiB writes (want about 1 MiB, the store's copy)", held>>20, n)
	}
}

// A Discard read is the same IO as a read into a buffer, minus the bytes.
// Two disks on schedulers with one seed serve one schedule of reads — a
// spin-up, reads over data and over holes, a URE rate that rots sectors and
// a fail-slow regime that draws EIO — one into a destination and one
// discarding. Every completion time, state transition, URE draw (what the
// store holds afterwards), EIO draw, bytesRead and health figure matches,
// and so does the next number the RNG hands out.
func TestDiscardReadIsTheSameIO(t *testing.T) {
	type run struct {
		events    []string
		store     []byte
		latent    int
		bytesRead uint64
		health    HealthStats
		nextDraw  int64
	}
	serve := func(dst ReadDest) run {
		s := simtime.NewScheduler(7)
		d := New(s, "d0", DT01ACA300(), AttachSATA)
		var r run
		d.OnStateChange(func(old, new State) {
			r.events = append(r.events, fmt.Sprintf("%v %v->%v", s.Now(), old, new))
		})
		d.Store().WriteAt(0, bytes.Repeat([]byte{0x11}, 4*chunkSize))
		d.SetURERate(0.01)
		d.Degrade(DegradeParams{ServiceFactor: 2, IOErrorRate: 0.3})
		for i, off := range []int64{0, chunkSize, 3*chunkSize + 4096, 40 * chunkSize, 0, 2 * chunkSize} {
			size := (i + 1) * 8192
			d.Submit(&Request{Op: Op{Read: true, Size: size, Pattern: Random}, Offset: off, Dest: dst,
				Done: func(data []byte, err error) {
					switch {
					case dst == Discard && data != nil:
						t.Errorf("read %d: a discard read delivered %d bytes", i, len(data))
					case dst != Discard && err == nil && len(data) != size:
						t.Errorf("read %d: %d bytes, want %d", i, len(data), size)
					}
					r.events = append(r.events, fmt.Sprintf("%v read %d: %v", s.Now(), i, err))
				}})
		}
		s.Run()
		r.store = readStore(d.Store(), 0, 48*chunkSize)
		r.latent, r.bytesRead, r.health = d.latentErrors, d.bytesRead, d.Health()
		r.nextDraw = s.Rand().Int63()
		return r
	}
	want := serve(&countingDest{buf: make([]byte, 64<<10)})
	if want.latent == 0 || want.health.Errors == 0 || want.health.Errors == want.health.IOs {
		t.Fatalf("schedule exercises too little: %d rotted sectors, %d of %d IOs failed",
			want.latent, want.health.Errors, want.health.IOs)
	}
	if got := serve(Discard); !reflect.DeepEqual(got, want) {
		t.Fatalf("discard run differs from the buffered run:\n got  %+v\n want %+v",
			got.events, want.events)
	}
}

// A discard read neither allocates nor fills its payload, while a read
// with no destination still gets a fresh buffer of its own per read (the
// disk probe and the tests rely on that).
func TestDiscardReadAllocatesNoPayload(t *testing.T) {
	s, d := newDisk(t)
	const size = 4 << 20
	d.Store().WriteAt(0, []byte("head"))
	read := func(dst ReadDest) (data []byte) {
		d.Submit(&Request{Op: Op{Read: true, Size: size, Pattern: Sequential}, Dest: dst,
			Done: func(b []byte, err error) {
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				data = b
			}})
		s.Run()
		return data
	}
	a, b := read(nil), read(nil)
	if len(a) != size || string(a[:4]) != "head" || &a[0] == &b[0] {
		t.Fatal("a read with no destination did not get a fresh, filled buffer")
	}
	read(Discard)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 8; i++ {
		if data := read(Discard); data != nil {
			t.Fatalf("discard read delivered %d bytes", len(data))
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 8; per > 4096 {
		t.Fatalf("a 4 MiB discard read allocates %d bytes", per)
	}
}
