package simnet

import "math/bits"

// FrameList is a network's free list of wire-frame buffers: a protocol that
// moves large payloads (block reads) takes its response frame here and the
// receiver gives it back once the payload has been consumed, so a steady
// stream of reads allocates no payload memory.
//
// It is a plain stack per size class, touched only from the network's own
// scheduler goroutine: no locks, and — unlike sync.Pool, which the garbage
// collector empties on its own schedule — what Get returns depends only on
// the sequence of Get and Put calls, so a seeded run allocates the same bytes
// every time. Each class keeps a bounded number of buffers; Put beyond the
// bound, and any frame that never comes back (dropped in flight), is left to
// the garbage collector.
type FrameList struct {
	classes [maxFrameShift - minFrameShift + 1][][]byte
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

	minFrameShift = 12 // smallest class: 4 KiB payloads
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

// Get returns a buffer of length size whose contents are unspecified (a
// recycled frame is dirty); the caller overwrites all of it.
func (f *FrameList) Get(size int) []byte {
	c := frameClass(size)
	if c < 0 {
		return make([]byte, size)
	}
	free := f.classes[c]
	if n := len(free); n > 0 {
		buf := free[n-1]
		free[n-1] = nil
		f.classes[c] = free[:n-1]
		return buf[:size]
	}
	return make([]byte, size, frameCap(c))
}

// Put gives a frame back. The caller must hold no other reference to it.
// Buffers Get did not hand out (recognised by capacity) and frames beyond the
// class bound are ignored.
func (f *FrameList) Put(frame []byte) {
	c := frameClass(cap(frame))
	if c < 0 || cap(frame) != frameCap(c) {
		return
	}
	if framePoison != nil {
		framePoison(frame[:cap(frame)])
	}
	if len(f.classes[c]) < frameClassLimit(c) {
		f.classes[c] = append(f.classes[c], frame)
	}
}
