package block

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ustore/internal/disk"
	"ustore/internal/simtime"
)

func newChecksumVolume(t *testing.T, base, size int64) (*simtime.Scheduler, *disk.Disk, *ChecksumDiskVolume) {
	t.Helper()
	s := simtime.NewScheduler(1)
	d := disk.New(s, "d0", disk.DT01ACA300(), disk.AttachSATA)
	d.SpinUp()
	s.Run()
	v, err := NewChecksumDiskVolume(d, base, size)
	if err != nil {
		t.Fatal(err)
	}
	return s, d, v
}

func TestChecksumVolumeRoundTrip(t *testing.T) {
	s, _, v := newChecksumVolume(t, 0, 1<<20)
	payload := bytes.Repeat([]byte{0xCD}, 8192)
	var werr error = errors.New("pending")
	v.WriteAt(4096, payload, func(err error) { werr = err })
	s.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	var got []byte
	var rerr error = errors.New("pending")
	v.ReadAt(4096, 8192, func(data []byte, err error) { got, rerr = data, err })
	s.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}
}

func TestChecksumVolumeDetectsSilentCorruption(t *testing.T) {
	s, d, v := newChecksumVolume(t, 0, 1<<20)
	payload := bytes.Repeat([]byte{0xEE}, 8192)
	v.WriteAt(0, payload, func(err error) {})
	s.Run()

	// Rot a sector behind the volume's back: the plain read path would
	// happily return the damaged bytes.
	d.Store().CorruptAt(100, 16, 0x40)

	var rerr error
	v.ReadAt(0, 8192, func(_ []byte, err error) { rerr = err })
	s.Run()
	if !errors.Is(rerr, ErrChecksum) {
		t.Fatalf("read error = %v, want ErrChecksum", rerr)
	}

	// A rewrite of the damaged blocks re-establishes the CRC.
	v.WriteAt(0, payload, func(err error) {})
	s.Run()
	var got []byte
	v.ReadAt(0, 8192, func(data []byte, err error) { got, rerr = data, err })
	s.Run()
	if rerr != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after repair: %v", rerr)
	}
}

func TestChecksumVolumeUnwrittenBlocksPassUnverified(t *testing.T) {
	s, d, v := newChecksumVolume(t, 0, 1<<20)
	// No write ever happened; even a corrupted hole reads back without a
	// checksum error (no CRC on record — like a fresh drive).
	d.Store().CorruptAt(0, 8, 0x01)
	var rerr error = errors.New("pending")
	v.ReadAt(0, 4096, func(_ []byte, err error) { rerr = err })
	s.Run()
	if rerr != nil {
		t.Fatalf("read of unverifiable block failed: %v", rerr)
	}
}

func TestChecksumVolumeCRCsSurviveBaseOffsets(t *testing.T) {
	// Two packed volumes on one disk share a boundary block; CRCs cover
	// absolute store content so each volume's writes keep the shared block
	// consistent for the other.
	s, d, v1 := newChecksumVolume(t, 0, 96*1024)
	v2, err := NewChecksumDiskVolume(d, 96*1024, 96*1024)
	if err != nil {
		t.Fatal(err)
	}
	v1.WriteAt(0, bytes.Repeat([]byte{1}, 96*1024), func(error) {})
	s.Run()
	v2.WriteAt(0, bytes.Repeat([]byte{2}, 96*1024), func(error) {})
	s.Run()
	for i, v := range []*ChecksumDiskVolume{v1, v2} {
		var rerr error = errors.New("pending")
		v.ReadAt(0, 96*1024, func(_ []byte, err error) { rerr = err })
		s.Run()
		if rerr != nil {
			t.Fatalf("volume %d read: %v", i, rerr)
		}
	}
}

func TestStatusChecksumErrMapsToErrChecksum(t *testing.T) {
	if !errors.Is(StatusChecksum.Err(), ErrChecksum) {
		t.Fatal("StatusChecksum.Err() does not wrap ErrChecksum")
	}
	if StatusOK.Err() != nil {
		t.Fatal("StatusOK.Err() != nil")
	}
}

// TestChecksumErrorNamesTheBlock: a local mismatch's error names the disk
// and the block and matches ErrChecksum, and a read of a block that stays
// rotten gets the same error again without formatting one.
func TestChecksumErrorNamesTheBlock(t *testing.T) {
	s, d, v := newChecksumVolume(t, 0, 1<<20)
	payload := bytes.Repeat([]byte{0xEE}, 2*ChecksumBlockSize)
	v.WriteAt(0, payload, func(error) {})
	s.Run()
	d.Store().CorruptAt(ChecksumBlockSize+100, 16, 0x40)
	var rerr error
	v.ReadAt(0, len(payload), func(_ []byte, err error) { rerr = err })
	s.Run()
	want := fmt.Sprintf("block: checksum mismatch: disk d0 block 1 (offset %d)", ChecksumBlockSize)
	if !errors.Is(rerr, ErrChecksum) || rerr.Error() != want {
		t.Fatalf("read error = %v, want %q matching ErrChecksum", rerr, want)
	}
	if n := testing.AllocsPerRun(50, func() {
		if v.verifyCRCs(0, 1) != rerr {
			t.Fatal("a second mismatch of the block got another error")
		}
	}); n != 0 {
		t.Fatalf("a repeated mismatch allocates %v objects, want 0", n)
	}
	d.Store().CorruptAt(100, 16, 0x40)
	if err := v.verifyCRCs(0, 1); err == rerr || err.Error() != "block: checksum mismatch: disk d0 block 0 (offset 0)" {
		t.Fatalf("a mismatch in block 0 reports %v", err)
	}
}
