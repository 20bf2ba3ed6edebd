package simnet

import "math/bits"

// Frame is one wire frame: a buffer and the record that carries it. A
// protocol sends the *Frame itself as Message.Payload — a pointer, so the
// send boxes nothing — and the buffer and its record are pooled together.
//
// A frame may also carry a body its sender does not own: memory lent by its
// owner (a disk store's chunk, for a block read reply) under a Lease. Such a
// frame's B is the header alone; Body is the payload the header declares.
// Put releases the lease. A duplicated delivery gets a private frame with
// the body copied in. A frame dropped in flight never releases its lease,
// which costs the owner one copy-on-write on its next change to those bytes.
type Frame struct {
	// B is the frame's bytes: the whole frame, or the header of a frame
	// whose payload is Body.
	B []byte
	// Body, if set, is the lent payload that follows B on the wire. Like
	// B, it is valid until the frame is Put, and nobody writes it.
	Body []byte
	// Lease is the claim on Body's memory, or nil when it needs none.
	Lease Lease
}

// Lease is a claim on memory lent to a frame's Body. Release gives it back,
// after which the frame's holder must not read the memory. It runs on the
// scheduler goroutine of the network that carries the frame, which is also
// the owner's: block IO never crosses an engine partition.
type Lease interface {
	Release()
}

// FrameList is a network's free list of wire frames: a protocol takes every
// frame it sends here and the receiver gives it back once the payload has
// been consumed, so a steady stream of block IO allocates neither payload
// memory nor frame records.
//
// It is a plain stack per size class, touched only from the network's own
// scheduler goroutine: no locks, and — unlike sync.Pool, which the garbage
// collector empties on its own schedule — what Get returns depends only on
// the sequence of Get and Put calls, so a seeded run allocates the same bytes
// every time. Each class keeps a bounded number of buffers; Put beyond the
// bound, and any frame that never comes back (dropped in flight), is left to
// the garbage collector.
type FrameList struct {
	classes [maxFrameShift - minFrameShift + 1][]*Frame
}

// framePoison is set only by this package's tests (export_test.go): it
// overwrites every released frame, so a reader that kept a payload past its
// callback sees garbage instead of bytes that happen to be still intact.
var framePoison func(frame []byte)

const (
	// FrameHeadroom is the room every pooled buffer has beyond its class's
	// power-of-two payload size, for the protocol header in front of the
	// payload. Classes are keyed on payload size so a 4 MiB read plus a
	// 20-byte header does not round up to an 8 MiB buffer.
	FrameHeadroom = 64

	minFrameShift = 8  // smallest class: 256 B payloads (requests, bare replies)
	maxFrameShift = 23 // largest class: 8 MiB payloads; bigger frames are not pooled

	// frameClassBytes bounds the bytes a class keeps (four buffers in the
	// largest class), frameClassMax the buffer count that works out to in
	// the small ones.
	frameClassBytes = 32 << 20
	frameClassMax   = 64
)

// frameClass returns the class whose buffers hold size bytes, or -1 when size
// is beyond the largest class.
func frameClass(size int) int {
	shift := minFrameShift
	if payload := size - FrameHeadroom; payload > 1<<minFrameShift {
		shift = bits.Len(uint(payload - 1))
	}
	if shift > maxFrameShift {
		return -1
	}
	return shift - minFrameShift
}

// frameCap is the capacity of every buffer in class c.
func frameCap(c int) int { return 1<<(c+minFrameShift) + FrameHeadroom }

// frameClassLimit is how many buffers class c keeps.
func frameClassLimit(c int) int {
	return min(frameClassBytes>>(c+minFrameShift), frameClassMax)
}

// Get returns a frame whose B has length size and unspecified contents (a
// recycled frame is dirty); the caller overwrites all of it.
func (f *FrameList) Get(size int) *Frame {
	c := frameClass(size)
	if c < 0 {
		return &Frame{B: make([]byte, size)}
	}
	free := f.classes[c]
	if n := len(free); n > 0 {
		fr := free[n-1]
		free[n-1] = nil
		f.classes[c] = free[:n-1]
		fr.B = fr.B[:size]
		return fr
	}
	return &Frame{B: make([]byte, size, frameCap(c))}
}

// Put gives a frame back, releasing its lease on a lent body. The caller
// must hold no other reference to it or its bytes. Buffers Get did not hand
// out (recognised by capacity) and frames beyond the class bound are ignored.
func (f *FrameList) Put(fr *Frame) {
	if fr.Lease != nil {
		fr.Lease.Release()
	}
	fr.Body, fr.Lease = nil, nil
	c := frameClass(cap(fr.B))
	if c < 0 || cap(fr.B) != frameCap(c) {
		return
	}
	if framePoison != nil {
		framePoison(fr.B[:cap(fr.B)])
	}
	if len(f.classes[c]) < frameClassLimit(c) {
		f.classes[c] = append(f.classes[c], fr)
	}
}
