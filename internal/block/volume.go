package block

import (
	"errors"
	"fmt"

	"ustore/internal/disk"
	"ustore/internal/simtime"
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
	// exactly that buffer — or, when dst is a disk.LendDest and the read
	// lies inside one store chunk, the store's own bytes, lent to dst. The
	// buffer belongs to whoever supplied it, lent bytes to the store: data
	// is valid until done returns, and a done that keeps the bytes longer
	// must copy them. A nil dst means a fresh buffer done may keep;
	// disk.Discard none.
	ReadInto(off int64, length int, dst disk.ReadDest, done func(data []byte, err error))
	// WriteAt writes data at off. data belongs to the caller until done
	// runs — for a Target, a request frame that is recycled right after —
	// so the volume copies what it stores before calling done and keeps no
	// reference to data afterwards.
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
	// crc turns on ChecksumDiskVolume's per-block verification; crcErr is
	// the last mismatch's error, for block crcErrBlock (checksumErr).
	crc         bool
	crcErr      error
	crcErrBlock int64
	// ios recycles IO records.
	ios simtime.FreeList[volumeIO]
}

// volumeIO is one IO in its disk's queue: the disk request and the caller's
// completion, in one record the volume recycles once the IO completes, so a
// steady stream of IO allocates neither.
type volumeIO struct {
	req   disk.Request // req.Done is complete, bound once per record
	v     *DiskVolume
	read  func([]byte, error)
	write func(error)
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

// submit queues an IO on the disk; exactly one of read and write is set.
func (v *DiskVolume) submit(op disk.Op, off int64, data []byte, dst disk.ReadDest, read func([]byte, error), write func(error)) {
	io, fresh := v.ios.Get()
	if fresh {
		io.v, io.req.Done = v, io.complete
	}
	io.req.Op, io.req.Offset, io.req.Data, io.req.Dest = op, v.base+off, data, dst
	io.read, io.write = read, write
	v.d.Submit(&io.req)
}

// complete is the disk's completion of io. The record goes back to the
// volume before the caller hears of the outcome, so the caller's next IO may
// reuse it: the disk does not touch a request after its Done.
func (io *volumeIO) complete(data []byte, err error) {
	v, read, write := io.v, io.read, io.write
	first, last := io.req.Offset/ChecksumBlockSize, (io.req.Offset+int64(io.req.Op.Size)-1)/ChecksumBlockSize
	io.req.Data, io.req.Dest, io.read, io.write = nil, nil, nil, nil
	v.ios.Put(io)
	if write != nil {
		if err == nil && v.crc {
			v.refreshCRCs(first, last)
		}
		write(err)
		return
	}
	if err == nil && v.crc {
		if err := v.verifyCRCs(first, last); err != nil {
			read(nil, err)
			return
		}
	}
	read(data, err)
}

// ReadInto implements Volume.
func (v *DiskVolume) ReadInto(off int64, length int, dst disk.ReadDest, done func([]byte, error)) {
	if off < 0 || length <= 0 || off+int64(length) > v.size {
		done(nil, fmt.Errorf("%w: read [%d,+%d) size %d", ErrVolumeRange, off, length, v.size))
		return
	}
	v.submit(disk.Op{Read: true, Size: length, Pattern: v.classify(off, length)}, off, nil, dst, done, nil)
}

// WriteAt implements Volume.
func (v *DiskVolume) WriteAt(off int64, data []byte, done func(error)) {
	if off < 0 || len(data) == 0 || off+int64(len(data)) > v.size {
		done(fmt.Errorf("%w: write [%d,+%d) size %d", ErrVolumeRange, off, len(data), v.size))
		return
	}
	v.submit(disk.Op{Read: false, Size: len(data), Pattern: v.classify(off, len(data))}, off, data, nil, nil, done)
}

var _ Volume = (*DiskVolume)(nil)
