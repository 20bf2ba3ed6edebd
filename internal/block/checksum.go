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
// has no ECC history either).
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
	return &ChecksumDiskVolume{DiskVolume: inner}, nil
}

// blockRange returns the first and last absolute block index covered by the
// volume-relative extent [off, off+length).
func (v *ChecksumDiskVolume) blockRange(off int64, length int) (int64, int64) {
	abs := v.base + off
	return abs / ChecksumBlockSize, (abs + int64(length) - 1) / ChecksumBlockSize
}

// WriteAt implements Volume. After the disk acknowledges the write, the
// CRCs of all touched blocks are refreshed from the medium. The sidecar
// update models the drive's ECC area being rewritten with the sector: it is
// metadata maintenance, not extra platter IO, so it reads the store
// directly.
func (v *ChecksumDiskVolume) WriteAt(off int64, data []byte, done func(error)) {
	length := len(data)
	v.DiskVolume.WriteAt(off, data, func(err error) {
		if err == nil {
			st := v.d.Store()
			first, last := v.blockRange(off, length)
			for b := first; b <= last; b++ {
				st.SetBlockCRC(b, st.ChunkCRC(b))
			}
		}
		done(err)
	})
}

// ReadAt is ReadInto into a fresh buffer.
func (v *ChecksumDiskVolume) ReadAt(off int64, length int, done func([]byte, error)) {
	v.ReadInto(off, length, nil, done)
}

// ReadInto implements Volume. After the disk returns data, every covered
// block that has a recorded CRC is verified against the medium; a mismatch
// fails the read with ErrChecksum instead of returning rotten bytes (dst's
// buffer has been taken by then and stays with whoever supplied it).
func (v *ChecksumDiskVolume) ReadInto(off int64, length int, dst disk.ReadDest, done func([]byte, error)) {
	v.DiskVolume.ReadInto(off, length, dst, func(data []byte, err error) {
		if err != nil {
			done(data, err)
			return
		}
		st := v.d.Store()
		first, last := v.blockRange(off, length)
		for b := first; b <= last; b++ {
			want, ok := st.BlockCRC(b)
			if !ok {
				continue
			}
			if got := st.ChunkCRC(b); got != want {
				done(nil, fmt.Errorf("%w: disk %s block %d (offset %d)",
					ErrChecksum, v.d.ID(), b, b*ChecksumBlockSize))
				return
			}
		}
		done(data, err)
	})
}

var _ Volume = (*ChecksumDiskVolume)(nil)
