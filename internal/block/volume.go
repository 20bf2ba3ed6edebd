package block

import (
	"errors"
	"fmt"

	"ustore/internal/disk"
)

// Volume is the storage a Target exports: a whole disk, a partition, or a
// big file on a disk — the three allocation granularities §IV-B mentions.
// IO is asynchronous; done runs on the simulation scheduler.
type Volume interface {
	// Size returns the volume size in bytes.
	Size() int64
	// ReadInto reads length bytes from off into the buffer dst supplies. dst
	// is asked only once the bytes are about to be copied (never for a read
	// that fails before reaching the medium), and on success done receives
	// exactly that buffer. The buffer belongs to whoever supplied it: data is
	// valid until done returns, and a done that keeps the bytes longer must
	// copy them. A nil dst means a fresh buffer, which done may keep.
	ReadInto(off int64, length int, dst disk.ReadDest, done func(data []byte, err error))
	// WriteAt writes data at off.
	WriteAt(off int64, data []byte, done func(err error))
}

// ErrVolumeRange is returned for IO outside the volume bounds.
var ErrVolumeRange = errors.New("block: io outside volume")

// DiskVolume exposes a byte range of a simulated disk as a Volume. It
// classifies each IO as sequential or random from the previous IO's end
// offset, so the disk model charges realistic positioning time.
type DiskVolume struct {
	d       *disk.Disk
	base    int64
	size    int64
	nextSeq int64 // expected next offset for a sequential classification
}

// NewDiskVolume exports d's range [base, base+size).
func NewDiskVolume(d *disk.Disk, base, size int64) (*DiskVolume, error) {
	if base < 0 || size <= 0 || base+size > d.Capacity() {
		return nil, fmt.Errorf("block: volume [%d,+%d) outside disk %s capacity %d",
			base, size, d.ID(), d.Capacity())
	}
	return &DiskVolume{d: d, base: base, size: size, nextSeq: -1}, nil
}

// Size implements Volume.
func (v *DiskVolume) Size() int64 { return v.size }

func (v *DiskVolume) classify(off int64, length int) disk.Pattern {
	pat := disk.Random
	if off == v.nextSeq {
		pat = disk.Sequential
	}
	v.nextSeq = off + int64(length)
	return pat
}

// ReadInto implements Volume.
func (v *DiskVolume) ReadInto(off int64, length int, dst disk.ReadDest, done func([]byte, error)) {
	if off < 0 || length <= 0 || off+int64(length) > v.size {
		done(nil, fmt.Errorf("%w: read [%d,+%d) size %d", ErrVolumeRange, off, length, v.size))
		return
	}
	v.d.Submit(&disk.Request{
		Op:     disk.Op{Read: true, Size: length, Pattern: v.classify(off, length)},
		Offset: v.base + off,
		Dest:   dst,
		Done:   done,
	})
}

// WriteAt implements Volume.
func (v *DiskVolume) WriteAt(off int64, data []byte, done func(error)) {
	if off < 0 || len(data) == 0 || off+int64(len(data)) > v.size {
		done(fmt.Errorf("%w: write [%d,+%d) size %d", ErrVolumeRange, off, len(data), v.size))
		return
	}
	v.d.Submit(&disk.Request{
		Op:     disk.Op{Read: false, Size: len(data), Pattern: v.classify(off, len(data))},
		Offset: v.base + off,
		Data:   data,
		Done:   func(_ []byte, err error) { done(err) },
	})
}

var _ Volume = (*DiskVolume)(nil)
