package block

import (
	"errors"
	"fmt"

	"ustore/internal/disk"
)

// ErrChecksum is returned when a read's content does not match the CRC the
// volume recorded at write time — the medium silently corrupted the data.
var ErrChecksum = errors.New("block: checksum mismatch")

// ChecksumBlockSize is the verification granularity. It equals the sparse
// store's chunk size so a block's CRC keys directly into the per-disk
// sidecar and stays valid across host failover (the sidecar travels with
// the platters).
const ChecksumBlockSize = disk.ChunkSize

// ChecksumDiskVolume wraps a DiskVolume with per-block CRC32 end-to-end
// verification. CRCs cover absolute disk blocks (not volume-relative
// ranges): every acknowledged write re-checksums the touched blocks from
// the medium, every read verifies them, and ErrChecksum surfaces silent
// corruption that a plain DiskVolume would return as good data. Blocks no
// write has ever covered carry no CRC and pass unverified (a fresh drive
// has no ECC history either). The checks run in the DiskVolume's own IO
// completion, so verification costs no record per IO of its own.
type ChecksumDiskVolume struct {
	*DiskVolume
}

// NewChecksumDiskVolume exports d's range [base, base+size) with CRC
// verification.
func NewChecksumDiskVolume(d *disk.Disk, base, size int64) (*ChecksumDiskVolume, error) {
	inner, err := NewDiskVolume(d, base, size)
	if err != nil {
		return nil, err
	}
	inner.crc = true
	return &ChecksumDiskVolume{DiskVolume: inner}, nil
}

// refreshCRCs runs after the disk acknowledges a write: the CRCs of all
// touched blocks are refreshed from the medium. The sidecar update models
// the drive's ECC area being rewritten with the sector: it is metadata
// maintenance, not extra platter IO, so it reads the store directly.
func (v *DiskVolume) refreshCRCs(first, last int64) {
	st := v.d.Store()
	for b := first; b <= last; b++ {
		st.SetBlockCRC(b, st.ChunkCRC(b))
	}
}

// verifyCRCs runs after the disk returns a read's data: every covered block
// that has a recorded CRC is verified against the medium, and a mismatch
// fails the read with ErrChecksum instead of returning rotten bytes (the
// read's destination buffer has been taken by then and stays with whoever
// supplied it).
func (v *DiskVolume) verifyCRCs(first, last int64) error {
	st := v.d.Store()
	for b := first; b <= last; b++ {
		want, ok := st.BlockCRC(b)
		if !ok {
			continue
		}
		if got := st.ChunkCRC(b); got != want {
			return v.checksumErr(b)
		}
	}
	return nil
}

// checksumErr is the ErrChecksum a read of rotten block b fails with. A
// rotten block fails every read that covers it until a write repairs it, so
// the volume keeps the error of the last block it reported: an error is an
// immutable value, and a repeated mismatch formats nothing.
func (v *DiskVolume) checksumErr(b int64) error {
	if v.crcErr == nil || v.crcErrBlock != b {
		v.crcErr = fmt.Errorf("%w: disk %s block %d (offset %d)", ErrChecksum, v.d.ID(), b, b*ChecksumBlockSize)
		v.crcErrBlock = b
	}
	return v.crcErr
}

// ReadAt is ReadInto into a fresh buffer.
func (v *ChecksumDiskVolume) ReadAt(off int64, length int, done func([]byte, error)) {
	v.ReadInto(off, length, nil, done)
}

var _ Volume = (*ChecksumDiskVolume)(nil)
