package block

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"ustore/internal/disk"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// readRig is an Initiator logged in to a ChecksumDiskVolume over simnet, with
// span bytes of the volume written — the path every cold read takes.
type readRig struct {
	sched *simtime.Scheduler
	net   *simnet.Network
	ini   *Initiator
	d     *disk.Disk
	tgt   *Target
	vol   *ChecksumDiskVolume

	// One callback for every read, so the rig itself allocates nothing
	// per IO. at is when it last ran.
	done  func([]byte, error)
	err   error
	at    simtime.Time
	check func(data []byte)
}

const readRigVolume = "sp0"

func newReadRig(tb testing.TB, span int) *readRig {
	tb.Helper()
	s := simtime.NewScheduler(1)
	n := simnet.New(s)
	r := &readRig{sched: s, net: n, ini: NewInitiator(n, "client1"),
		d: disk.New(s, "disk00", disk.DT01ACA300(), disk.AttachFabric)}
	r.done = func(data []byte, err error) {
		r.err, r.at = err, s.Now()
		if err == nil && r.check != nil {
			r.check(data)
		}
	}
	r.d.SpinUp()
	s.Run()
	vol, err := NewChecksumDiskVolume(r.d, 0, 1<<30)
	if err != nil {
		tb.Fatal(err)
	}
	r.tgt, r.vol = NewTarget(n, "h1"), vol
	r.tgt.Export(readRigVolume, vol)
	r.ini.Login("h1", readRigVolume, func(_ int64, err error) {
		if err != nil {
			tb.Fatalf("login: %v", err)
		}
	})
	s.Run()
	data := make([]byte, span)
	for i := range data {
		data[i] = byte(i*7 + i>>12)
	}
	r.ini.Write("h1", readRigVolume, 0, data, func(err error) {
		if err != nil {
			tb.Fatalf("write: %v", err)
		}
	})
	s.Run()
	return r
}

// read does one round trip and returns the error the callback saw; check, if
// set, sees the payload while it is still valid.
func (r *readRig) read(off int64, length int, check func(data []byte)) error {
	r.err, r.check = errPending, check
	r.ini.Read("h1", readRigVolume, off, length, r.done)
	r.sched.Run()
	return r.err
}

// readDiscard is read as a discard read; check, if set, sees what the
// callback got.
func (r *readRig) readDiscard(off int64, length int, check func(data []byte)) error {
	r.err, r.check = errPending, check
	r.ini.ReadDiscard("h1", readRigVolume, off, length, r.done)
	r.sched.Run()
	return r.err
}

var errPending = errors.New("read still pending")

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// Steady-state guard: once the free list is warm, a 1 MiB read round trip —
// request PDU, disk IO, CRC verification of sixteen blocks, response frame,
// delivery, callback — allocates no payload-sized memory at all: under 1 KiB
// per IO, all of it request bookkeeping.
func TestReadPathSteadyStateAllocatesNoPayload(t *testing.T) {
	const size = 1 << 20
	r := newReadRig(t, 2*size)
	want := make([]byte, size)
	r.d.Store().ReadInto(size/2, want)
	verify := func(data []byte) {
		if !bytes.Equal(data, want) {
			t.Error("read returned wrong bytes")
		}
	}
	for i := 0; i < 4; i++ { // warm the free list and the scheduler's pools
		if err := r.read(size/2, size, verify); err != nil {
			t.Fatal(err)
		}
	}
	const ios = 64
	before := totalAlloc()
	for i := 0; i < ios; i++ {
		if err := r.read(size/2, size, nil); err != nil {
			t.Fatal(err)
		}
	}
	perIO := (totalAlloc() - before) / ios
	if perIO >= 1024 {
		t.Fatalf("steady-state 1 MiB read allocates %d B per IO, want < 1 KiB", perIO)
	}
	if err := r.read(size/2, size, verify); err != nil { // recycled frames still carry the right bytes
		t.Fatal(err)
	}
}

// write does one write round trip and returns the error the callback saw.
func (r *readRig) write(off int64, data []byte) error {
	err := errPending
	r.ini.Write("h1", readRigVolume, off, data, func(e error) { err = e })
	r.sched.Run()
	return err
}

// The write path's steady-state guard: the request frame comes from the
// network's free list and the target gives it back once the disk has stored
// the payload, so a warm stream of 1 MiB writes — frame, disk IO, CRC
// refresh of sixteen blocks, response — allocates no payload-sized memory:
// under 1 KiB per MiB written. The caller's buffer is copied into the frame,
// never aliased: rewriting it as soon as Write returns does not change what
// lands on the disk.
func TestWritePathSteadyStateAllocatesNoPayload(t *testing.T) {
	const size = 1 << 20
	r := newReadRig(t, 2*size)
	buf := make([]byte, size)
	fill := func(seed byte) []byte {
		for i := range buf {
			buf[i] = seed + byte(i*13+i>>10)
		}
		return buf
	}
	for i := 0; i < 4; i++ { // warm the free list and the scheduler's pools
		if err := r.write(size/2, fill(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	const ios = 64
	before := totalAlloc()
	for i := 0; i < ios; i++ {
		if err := r.write(int64(i%2)*size, buf); err != nil {
			t.Fatal(err)
		}
	}
	if perMiB := (totalAlloc() - before) / ios; perMiB >= 1024 {
		t.Fatalf("steady-state 1 MiB write allocates %d B per MiB written, want < 1 KiB", perMiB)
	}
	want := append([]byte(nil), fill(0x5A)...)
	err := errPending
	r.ini.Write("h1", readRigVolume, 0, buf, func(e error) { err = e })
	fill(0xA5) // the request is in flight: the frame holds its own copy
	r.sched.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.read(0, size, func(data []byte) {
		if !bytes.Equal(data, want) {
			t.Error("read-back differs from the bytes written: the wire aliased the caller's buffer or a recycled frame")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// The checksum error path takes a frame (the medium was read before the CRC
// could be checked), must still fail the read with ErrChecksum, and must give
// the frame back: the reads that follow find it in the free list.
func TestReadPathChecksumErrorReleasesFrame(t *testing.T) {
	const size = 1 << 20
	r := newReadRig(t, 2*size)
	for i := 0; i < 2; i++ {
		if err := r.read(0, size, nil); err != nil {
			t.Fatal(err)
		}
	}
	r.d.CorruptSector(size + 8192) // rots the second MiB only
	before := totalAlloc()
	const rounds = 8
	for i := 0; i < rounds; i++ {
		if err := r.read(size, size, nil); !errors.Is(err, ErrChecksum) {
			t.Fatalf("read of a rotten block: err = %v, want ErrChecksum", err)
		}
		if err := r.read(0, size, nil); err != nil {
			t.Fatalf("read of a clean block after a checksum failure: %v", err)
		}
	}
	// A leaked frame would cost a fresh 1 MiB buffer per round.
	if perRound := (totalAlloc() - before) / rounds; perRound >= 8<<10 {
		t.Fatalf("checksum failure + clean read allocate %d B per round: the failed read's frame was not released", perRound)
	}
}

// A reply that loses the race with its own timeout is claimed by nobody — the
// caller was already told ErrTimeout — so its frame must go straight back to
// the free list: the next Get of that size returns the very buffer the late
// reply arrived in. (In the unprotected restore storm that is thousands of
// 4 MiB frames.)
func TestReadPathLateReplyReleasesFrame(t *testing.T) {
	const size = 1 << 20
	r := newReadRig(t, size)
	var payload *byte // where the one pooled frame's payload starts
	if err := r.read(0, size, func(data []byte) { payload = &data[0] }); err != nil {
		t.Fatal(err)
	}
	r.ini.Timeout = time.Millisecond // the response alone is 8 ms on the wire
	if err := r.read(0, size, nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("read with a 1 ms deadline: err = %v, want ErrTimeout", err)
	}
	// sched.Run in read returned only after the late reply was delivered.
	if frame := r.ini.frames.Get(headerLen + size); &frame.B[headerLen] != payload {
		t.Fatal("the late reply's frame did not return to the free list")
	}
}

// A discard read is a full read in everything but the payload it hands
// back: its reply arrives when the full read's does and the network counts
// the same bytes for it, a rotten block still fails it with ErrChecksum,
// and once warm it allocates no more than a full read.
func TestDiscardReadMatchesFullRead(t *testing.T) {
	const size = 1 << 20
	type outcome struct {
		took  time.Duration
		bytes uint64
		err   error
	}
	for _, off := range []int64{0, size / 2, 3 * size} { // written, straddling, a hole
		var full, discard outcome
		for _, o := range []*outcome{&full, &discard} {
			r := newReadRig(t, 2*size)
			start, sent := r.sched.Now(), r.net.Stats().Bytes
			if o == &full {
				o.err = r.read(off, size, nil)
			} else {
				o.err = r.readDiscard(off, size, func(data []byte) {
					if len(data) != 0 {
						t.Errorf("discard read handed back %d bytes", len(data))
					}
				})
			}
			o.took, o.bytes = time.Duration(r.at-start), r.net.Stats().Bytes-sent
		}
		if full.err != nil || discard != full {
			t.Fatalf("read at %d: discard %+v, full %+v", off, discard, full)
		}
	}

	r := newReadRig(t, 2*size)
	r.d.CorruptSector(size + 8192) // rots the second MiB only
	if err := r.readDiscard(size, size, nil); !errors.Is(err, ErrChecksum) {
		t.Fatalf("discard read of a rotten block: err = %v, want ErrChecksum", err)
	}
	if err := r.readDiscard(0, size, nil); err != nil {
		t.Fatalf("discard read of a clean block: %v", err)
	}

	allocs := func(read func(int64, int, func([]byte)) error) float64 {
		for i := 0; i < 4; i++ { // warm the free list and the scheduler's pools
			if err := read(0, size, nil); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(32, func() {
			if err := read(0, size, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if d, f := allocs(r.readDiscard), allocs(r.read); d > f {
		t.Fatalf("a warm discard read makes %v allocations, a full read %v", d, f)
	}
}

// copyingVolume serves every read on the copy path: the destination it
// passes on hides Lend, so the disk copies even a read inside one chunk.
type copyingVolume struct{ Volume }

func (v copyingVolume) ReadInto(off int64, length int, dst disk.ReadDest, done func([]byte, error)) {
	v.Volume.ReadInto(off, length, copyDest{dst}, done)
}

type copyDest struct{ disk.ReadDest }

// A lent read is the same IO as a copied one: over a written chunk, a hole
// and a range that straddles two chunks (which is copied either way), its
// reply arrives at the same time, the network counts the same bytes and the
// callback gets the same bytes; a rotten chunk still fails it with
// ErrChecksum. And lent bytes do not change under their reader: with the
// reply still on a browned-out link, a write to the same chunk is serviced,
// and the reader gets the bytes from before the write.
func TestLentReadMatchesCopiedRead(t *testing.T) {
	const size = disk.ChunkSize
	type outcome struct {
		took  time.Duration
		bytes uint64
		data  string
		err   error
	}
	rig := func(lent bool) *readRig {
		r := newReadRig(t, 2*size)
		if !lent {
			r.tgt.Export(readRigVolume, copyingVolume{r.vol})
		}
		return r
	}
	for _, off := range []int64{0, 3 * size, size / 2} { // written, a hole, straddling
		var lent, copied outcome
		for _, o := range []*outcome{&lent, &copied} {
			r := rig(o == &lent)
			start, sent := r.sched.Now(), r.net.Stats().Bytes
			o.err = r.read(off, size, func(data []byte) {
				// Lent bytes are sliced to their length; a copy sits in
				// a frame with room for its header.
				if borrowed := cap(data) == len(data); borrowed != (o == &lent && off%size == 0) {
					t.Errorf("read at %d: lent %v, want %v", off, borrowed, !borrowed)
				}
				o.data = string(data)
			})
			o.took, o.bytes = time.Duration(r.at-start), r.net.Stats().Bytes-sent
		}
		if lent.err != nil || lent != copied {
			t.Fatalf("read at %d: lent took %v, %d bytes, err %v; copied took %v, %d bytes, err %v; same data %v",
				off, lent.took, lent.bytes, lent.err, copied.took, copied.bytes, copied.err, lent.data == copied.data)
		}
	}

	r := rig(true)
	r.d.CorruptSector(size + 8192)
	if err := r.read(size, size, nil); !errors.Is(err, ErrChecksum) {
		t.Fatalf("lent read of a rotten chunk: err = %v, want ErrChecksum", err)
	}

	for _, lent := range []bool{true, false} {
		r := rig(lent)
		r.net.Colocate("client1", "m-client")
		r.net.Colocate(TargetNode("h1"), "m-target")
		r.net.SetMachineBrownout("m-target", 50*time.Millisecond)
		before := make([]byte, size)
		r.d.Store().ReadInto(0, before)
		after := bytes.Repeat([]byte{0xC3}, size)
		readErr, writeErr := errPending, errPending
		r.ini.Read("h1", readRigVolume, 0, size, func(data []byte, err error) {
			readErr = err
			now := make([]byte, size)
			r.d.Store().ReadInto(0, now)
			if !bytes.Equal(now, after) {
				t.Errorf("lent=%v: the write was not serviced while the read's reply was in flight", lent)
			}
			if !bytes.Equal(data, before) {
				t.Errorf("lent=%v: the reader got bytes written after its read was serviced", lent)
			}
		})
		r.ini.Write("h1", readRigVolume, 0, after, func(err error) { writeErr = err })
		r.sched.Run()
		if readErr != nil || writeErr != nil {
			t.Fatalf("lent=%v: read %v, write %v", lent, readErr, writeErr)
		}
		if err := r.read(0, size, func(data []byte) {
			if !bytes.Equal(data, after) {
				t.Errorf("lent=%v: a read after the write does not see it", lent)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

var benchSink int

// BenchmarkReadPath is one 1 MiB read round trip over simnet against a
// ChecksumDiskVolume: MB/s is host throughput of the simulated data path,
// and B/op what it allocates per read.
func BenchmarkReadPath(b *testing.B) {
	const size = 1 << 20
	r := newReadRig(b, 2*size)
	sum := func(data []byte) { benchSink += int(data[0]) + int(data[len(data)-1]) }
	if err := r.read(0, size, sum); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.read(int64(i%2)*size, size, sum); err != nil {
			b.Fatal(err)
		}
	}
}
