package disk

import (
	"bytes"
	"hash/crc32"
	"testing"

	"ustore/internal/simtime"
)

func submitWrite(s *simtime.Scheduler, d *Disk, off int64, data []byte) {
	d.Submit(&Request{
		Op:     Op{Read: false, Size: len(data), Pattern: Sequential},
		Offset: off,
		Data:   data,
	})
	s.Run()
}

func submitRead(s *simtime.Scheduler, d *Disk, off int64, size int) []byte {
	var out []byte
	d.Submit(&Request{
		Op:     Op{Read: true, Size: size, Pattern: Sequential},
		Offset: off,
		Done:   func(data []byte, err error) { out = data },
	})
	s.Run()
	return out
}

// readStore returns size bytes of st from off in a fresh buffer.
func readStore(st *Store, off int64, size int) []byte {
	out := make([]byte, size)
	st.ReadInto(off, out)
	return out
}

func TestCorruptAtFlipsBitsButKeepsSidecar(t *testing.T) {
	st := NewStore()
	data := bytes.Repeat([]byte{0xAB}, 1024)
	st.WriteAt(0, data)
	st.SetBlockCRC(0, 1234)

	st.CorruptAt(100, 10, 0x5a)
	got := readStore(st, 0, 1024)
	if bytes.Equal(got, data) {
		t.Fatal("CorruptAt did not change the data")
	}
	for i := 0; i < 1024; i++ {
		want := byte(0xAB)
		if i >= 100 && i < 110 {
			want ^= 0x5a
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
	if crc, ok := st.BlockCRC(0); !ok || crc != 1234 {
		t.Fatalf("sidecar CRC damaged by CorruptAt: %d, %v", crc, ok)
	}
}

func TestCorruptAtHoleMaterializesChunk(t *testing.T) {
	st := NewStore()
	st.CorruptAt(chunkSize*3+5, 2, 0x01)
	got := readStore(st, chunkSize*3+5, 2)
	if got[0] != 0x01 || got[1] != 0x01 {
		t.Fatalf("corrupting a hole read back %v, want [1 1]", got)
	}
	if len(st.chunks) != 1 || st.chunks[3].data == nil {
		t.Fatalf("materialized chunks = %d, want only chunk 3", len(st.chunks))
	}
}

func TestURECorruptsReadPersistently(t *testing.T) {
	s, d := newDisk(t)
	payload := bytes.Repeat([]byte{0x11}, SectorSize)
	submitWrite(s, d, 0, payload)

	d.SetURERate(1.0) // every sector read rots
	got := submitRead(s, d, 0, SectorSize)
	if bytes.Equal(got, payload) {
		t.Fatal("URE rate 1.0 read returned clean data")
	}
	if d.latentErrors == 0 {
		t.Fatal("LatentErrors not counted")
	}

	// The damage is on the medium: a clean re-read (rate back to 0) still
	// sees the corrupted sector.
	d.SetURERate(0)
	again := submitRead(s, d, 0, SectorSize)
	if !bytes.Equal(again, got) {
		t.Fatal("latent sector error did not persist across reads")
	}

	// Rewriting the sector heals it.
	submitWrite(s, d, 0, payload)
	healed := submitRead(s, d, 0, SectorSize)
	if !bytes.Equal(healed, payload) {
		t.Fatal("rewrite did not heal the latent error")
	}
}

func TestUREZeroRateConsumesNoRNG(t *testing.T) {
	// Two identical runs, one with the model explicitly disabled, must
	// leave the shared RNG in the same state — otherwise enabling chaos
	// features would perturb unrelated baseline runs.
	run := func(setRate bool) (int64, int64) {
		s, d := newDisk(t)
		submitWrite(s, d, 0, bytes.Repeat([]byte{9}, SectorSize))
		if setRate {
			d.SetURERate(0)
		}
		submitRead(s, d, 0, SectorSize)
		return s.Rand().Int63(), s.Rand().Int63()
	}
	a1, a2 := run(false)
	b1, b2 := run(true)
	if a1 != b1 || a2 != b2 {
		t.Fatal("zero-rate URE model consumed RNG")
	}
}

func TestReplaceMediaWipesDataAndResetsCounters(t *testing.T) {
	s, d := newDisk(t)
	submitWrite(s, d, 0, bytes.Repeat([]byte{7}, SectorSize))
	d.Store().SetBlockCRC(0, 99)
	d.CorruptSector(0)
	if d.latentErrors != 1 {
		t.Fatalf("LatentErrors = %d, want 1", d.latentErrors)
	}

	d.ReplaceMedia()
	if d.latentErrors != 0 {
		t.Fatal("LatentErrors survived media replacement")
	}
	if _, ok := d.Store().BlockCRC(0); ok {
		t.Fatal("checksum sidecar survived media replacement")
	}
	got := submitRead(s, d, 0, SectorSize)
	for _, b := range got {
		if b != 0 {
			t.Fatal("data survived media replacement")
		}
	}
}

// ChunkCRC memoises each chunk's checksum, so every way a chunk's bytes
// change must drop the memo: a stale one would let a verify compare the
// sidecar against bytes the chunk no longer holds, missing real rot or
// inventing it. Each step is checked after the chunk was hashed at least
// once before, so a memo that survives the change is what the check sees.
func TestChunkCRCFollowsEveryChange(t *testing.T) {
	s, d := newDisk(t)
	check := func(step string, idx ...int64) {
		t.Helper()
		st := d.Store()
		for _, i := range idx {
			want := crc32.ChecksumIEEE(readStore(st, i*chunkSize, chunkSize))
			if got := st.ChunkCRC(i); got != want {
				t.Fatalf("%s: ChunkCRC(%d) = %#x, want %#x, the CRC of the bytes ReadInto returns", step, i, got, want)
			}
		}
	}
	check("hole", 2, 3, 5)
	d.Store().WriteAt(2*chunkSize+100, bytes.Repeat([]byte{0xAB}, chunkSize)) // straddles chunks 2 and 3
	check("write over holes", 2, 3)
	d.Store().WriteAt(3*chunkSize+7, []byte{1, 2, 3})
	check("rewrite", 2, 3)
	d.Store().CorruptAt(2*chunkSize+200, 16, 0x5a)
	check("corrupt", 2, 3)
	d.CorruptSector(3 * chunkSize)
	check("corrupt sector", 2, 3)
	d.Store().CorruptAt(5*chunkSize+1, 1, 0x01)
	check("corrupt a hole", 5)
	submitWrite(s, d, 2*chunkSize+chunkSize-2, []byte("over the boundary"))
	check("write through Submit", 2, 3)
	d.ReplaceMedia()
	check("replaced media", 2, 3, 5)
}

// lender is a LendDest that keeps the last loan it was given.
type lender struct {
	countingDest
	lease *Lease
}

func (l *lender) Lend(lease *Lease) { l.lease = lease }

// lendRead reads size bytes at off through Submit into a LendDest and returns
// the lent bytes and their lease.
func lendRead(t *testing.T, s *simtime.Scheduler, d *Disk, off int64, size int) ([]byte, *Lease) {
	t.Helper()
	dst := &lender{}
	var out []byte
	d.Submit(&Request{Op: Op{Read: true, Size: size, Pattern: Random}, Offset: off, Dest: dst,
		Done: func(data []byte, err error) {
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			out = data
		}})
	s.Run()
	if dst.calls != 0 {
		t.Fatalf("a read inside one chunk asked for a buffer %d times instead of borrowing", dst.calls)
	}
	return out, dst.lease
}

// Lent bytes never change: every way a chunk's bytes change — a write of
// the whole chunk or part of it, rot planted in a written chunk or a hole, a
// URE drawn on read, a write through Submit, new media — leaves the bytes
// lent before it as they were, while a new read sees the change and ChunkCRC
// follows the chunk's new buffer. Once the lend is released, the chunk
// changes in place again and allocates nothing.
func TestLentChunkNeverChanges(t *testing.T) {
	s, d := newDisk(t)
	d.Store().WriteAt(0, bytes.Repeat([]byte{0x11}, 2*chunkSize))
	for _, step := range []struct {
		name   string
		chunk  int64
		change func()
	}{
		{"whole-chunk write", 0, func() { d.Store().WriteAt(0, bytes.Repeat([]byte{0x22}, chunkSize)) }},
		{"partial write", 0, func() { d.Store().WriteAt(100, []byte("partial")) }},
		{"corrupt", 0, func() { d.Store().CorruptAt(200, 16, 0x5a) }},
		{"corrupt a hole", 5, func() { d.Store().CorruptAt(5*chunkSize+1, 1, 0x01) }},
		{"URE on read", 1, func() {
			d.SetURERate(1)
			submitRead(s, d, chunkSize, SectorSize)
			d.SetURERate(0)
		}},
		{"write through Submit", 1, func() { submitWrite(s, d, chunkSize-2, []byte("over the boundary")) }},
		{"replaced media", 0, d.ReplaceMedia},
	} {
		off := step.chunk * chunkSize
		lent, lease := lendRead(t, s, d, off, chunkSize)
		was := append([]byte(nil), lent...)
		step.change()
		now := readStore(d.Store(), off, chunkSize)
		switch {
		case !bytes.Equal(lent, was):
			t.Fatalf("%s: the lent bytes changed", step.name)
		case bytes.Equal(now, was):
			t.Fatalf("%s: a new read does not see the change", step.name)
		case d.Store().ChunkCRC(step.chunk) != crc32.ChecksumIEEE(now):
			t.Fatalf("%s: ChunkCRC does not follow the chunk's new bytes", step.name)
		}
		lease.Release()
	}

	whole := bytes.Repeat([]byte{0x33}, chunkSize)
	d.Store().WriteAt(chunkSize, whole[:1]) // the new media's chunk 1 was a hole
	lent, lease := lendRead(t, s, d, chunkSize, chunkSize)
	lease.Release()
	for name, write := range map[string]func(){
		"whole-chunk write": func() { d.Store().WriteAt(chunkSize, whole) },
		"partial write":     func() { d.Store().WriteAt(chunkSize+9, whole[:100]) },
		"corrupt":           func() { d.Store().CorruptAt(chunkSize+300, 8, 0x5a) },
		"lend and release":  func() { _, l := d.Store().lend(chunkSize, chunkSize); l.Release() },
	} {
		if n := testing.AllocsPerRun(10, write); n != 0 {
			t.Errorf("%s after the lend was released: %v allocations, want 0 (in place)", name, n)
		}
	}
	if !bytes.Equal(lent, readStore(d.Store(), chunkSize, chunkSize)) {
		t.Fatal("after the lend was released the chunk was not changed in place")
	}
}

// Generation answers only for the chunk's own bytes, and every change to
// them gives the chunk a new generation: a whole-chunk or partial write, rot
// planted in a written chunk or a hole, a damaged sector, a URE drawn on
// read, a write through Submit. Each change here is made in place (the lend
// is released first), so the old slice still aliases the chunk and only the
// generation tells the bytes changed. A copied read, a hole's zeros, a slice
// asked about at the wrong offset, a lent slice the chunk left by copying on
// write and a slice of replaced media all answer not-current.
func TestGenerationFollowsEveryChange(t *testing.T) {
	s, d := newDisk(t)
	d.Store().WriteAt(0, bytes.Repeat([]byte{0x11}, 2*chunkSize))
	// current lends the chunk at off, gives the lend back and returns the
	// lent bytes and their generation.
	current := func(step string, off int64) ([]byte, uint64) {
		t.Helper()
		lent, lease := lendRead(t, s, d, off, chunkSize)
		lease.Release()
		gen, ok := d.Store().Generation(off, lent)
		if !ok {
			t.Fatalf("%s: the chunk's own bytes answer not-current", step)
		}
		return lent, gen
	}
	for _, step := range []struct {
		name   string
		chunk  int64
		change func()
	}{
		{"whole-chunk write", 0, func() { d.Store().WriteAt(0, bytes.Repeat([]byte{0x22}, chunkSize)) }},
		{"partial write", 0, func() { d.Store().WriteAt(100, []byte("partial")) }},
		{"corrupt", 0, func() { d.Store().CorruptAt(200, 16, 0x5a) }},
		{"corrupt sector", 1, func() { d.CorruptSector(chunkSize + 3*SectorSize) }},
		{"URE on read", 1, func() {
			d.SetURERate(1)
			submitRead(s, d, chunkSize, SectorSize)
			d.SetURERate(0)
		}},
		{"write through Submit", 1, func() { submitWrite(s, d, chunkSize-2, []byte("over the boundary")) }},
	} {
		off := step.chunk * chunkSize
		lent, before := current(step.name, off)
		step.change()
		after, ok := d.Store().Generation(off, lent)
		if !ok {
			t.Fatalf("%s: a change in place left the chunk's buffer", step.name)
		}
		if after == before {
			t.Fatalf("%s: the bytes changed but the generation stayed %d", step.name, before)
		}
		if _, gen := current(step.name, off); gen != after {
			t.Fatalf("%s: a new lend answers generation %d, the old slice %d", step.name, gen, after)
		}
	}

	st := d.Store()
	lent, gen := current("copied read", 0)
	if _, ok := st.Generation(0, readStore(st, 0, chunkSize)); ok {
		t.Fatal("a copied read answers current")
	}
	if _, ok := st.Generation(1, lent); ok {
		t.Fatal("a slice asked about at the wrong offset answers current")
	}
	if g, ok := st.Generation(100, lent[100:200]); !ok || g != gen {
		t.Fatalf("a slice inside the chunk answers (%d, %v), want (%d, true)", g, ok, gen)
	}

	hole, _ := lendRead(t, s, d, 5*chunkSize, chunkSize)
	if _, ok := st.Generation(5*chunkSize, hole); ok {
		t.Fatal("a hole's zeros answer current")
	}
	st.CorruptAt(5*chunkSize+1, 1, 0x01)
	current("corrupt a hole", 5*chunkSize)

	held, lease := lendRead(t, s, d, 0, chunkSize)
	st.WriteAt(100, []byte("under a lend"))
	if _, ok := st.Generation(0, held); ok {
		t.Fatal("a lent slice answers current after its chunk was copied on write")
	}
	lease.Release()
	if _, g := current("write under a lend", 0); g == gen {
		t.Fatalf("a write under a lend kept generation %d", gen)
	}

	old, _ := current("replaced media", 0)
	d.ReplaceMedia()
	d.Store().WriteAt(0, bytes.Repeat([]byte{0x44}, chunkSize))
	if _, ok := d.Store().Generation(0, old); ok {
		t.Fatal("the replaced media's bytes answer current on the new store")
	}
}
