package disk

import (
	"bytes"
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
	if len(st.chunks) != 1 || st.chunks[3] == nil {
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
