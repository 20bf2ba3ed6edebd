package disk

import "hash/crc32"

// Store is a sparse in-memory byte store backing a simulated disk's data
// plane. Unwritten regions read as zero, like a fresh drive. Chunks are
// allocated lazily so simulating a 3TB disk costs memory proportional only
// to the bytes actually written.
//
// Alongside the data plane the store keeps an out-of-band checksum sidecar
// (SetBlockCRC/BlockCRC), modelling the per-sector ECC/metadata area real
// drives reserve next to each sector: it travels with the platters when a
// disk is re-cabled to another host, and it is NOT damaged by CorruptAt —
// which is exactly what makes silent bit rot detectable.
//
// A read that lies inside one chunk may borrow the chunk's memory instead of
// copying it (lend). Lent bytes never change: a change to a chunk whose
// bytes are lent out goes to a fresh copy of the chunk (chunkAt), and the
// lent buffer stays with its borrowers until its last lend is released and
// the garbage collector takes it.
//
// Every change to a chunk's bytes goes through chunkAt (WriteAt, CorruptAt
// and, through it, Disk.CorruptSector and a URE drawn on read), which stamps
// the chunk with the next value of a store-wide change counter. Generation
// reads that stamp back for a caller holding the chunk's own bytes: two
// reads that alias a chunk at one generation saw the same bytes, so a
// checker may compare them once (the chaos probe's memo). A borrower that
// writes through lent bytes bypasses chunkAt and is the one change the
// stamp cannot see.
type Store struct {
	chunks map[int64]chunk
	crcs   map[int64]uint32
	gen    uint64 // changes so far; the last generation chunkAt stamped
}

// chunk is an allocated chunk; crc is its CRC32 while crcOK (changes clear
// it). lease is data's lend record once data has been lent, else nil. gen
// is the store's change count at data's last change.
type chunk struct {
	data  []byte
	lease *Lease
	gen   uint64
	crc   uint32
	crcOK bool
}

// Lease is the lend record of one chunk buffer: how many lends of it are
// outstanding. The count exists only so that a change to a chunk nobody is
// reading stays in place and allocates nothing; while it is above zero the
// chunk's next change copies on write instead.
//
// Lends are taken and released on the store's scheduler goroutine, like all
// disk IO: the count is a plain int, and a borrower that hands lent bytes to
// another goroutine must copy them. A nil *Lease is a hole's lend of the
// shared zero chunk, which never changes; its Release does nothing.
type Lease struct {
	n int // outstanding lends
	// s, ci and buf name the buffer and its chunk, for LendPoison.
	s   *Store
	ci  int64
	buf []byte
}

// Release gives one lend back. Once the last is back, the chunk may change
// its bytes in place again.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	if l.n--; l.n < 0 {
		panic("disk: lease released more often than it was lent")
	}
	if l.n == 0 && LendPoison != nil {
		// Detach the buffer from its chunk, which keeps a copy, before
		// it is poisoned.
		if c := l.s.chunks[l.ci]; c.lease == l {
			c.data, c.lease = append([]byte(nil), c.data...), nil
			l.s.chunks[l.ci] = c
		}
		LendPoison(l.buf)
	}
}

// LendPoison is nil in every program. Tests set it (the block-path ownership
// tests, through simnet's PoisonFrames) to make the release of a buffer's
// last lend detach that buffer from its chunk, which keeps a copy, and
// overwrite it: a borrower that kept lent bytes past its release, or a path
// that released them early, then reads the poison instead of bytes that
// happen to be still intact.
var LendPoison func(buf []byte)

// zeroChunk is what every hole lends: one read-only chunk of zeros.
var zeroChunk = make([]byte, chunkSize)

// chunkSize is the allocation granularity of the sparse store.
const chunkSize = 64 * 1024

// ChunkSize exposes the sparse-allocation granularity (also the unit the
// checksum sidecar is keyed by).
const ChunkSize = chunkSize

// NewStore returns an empty sparse store.
func NewStore() *Store {
	return &Store{
		chunks: make(map[int64]chunk),
		crcs:   make(map[int64]uint32),
	}
}

// WriteAt copies data into the store at off.
func (s *Store) WriteAt(off int64, data []byte) {
	for len(data) > 0 {
		co := off % chunkSize
		whole := co == 0 && len(data) >= chunkSize
		n := copy(s.chunkAt(off/chunkSize, whole)[co:], data)
		data, off = data[n:], off+int64(n)
	}
}

// chunkAt returns chunk ci's bytes for a caller about to change them, and
// stamps the chunk with a new generation. A chunk whose bytes are lent out
// gets a fresh buffer first and leaves the lent one to its borrowers; the
// fresh buffer starts as a copy of the chunk unless whole says the caller
// overwrites all of it.
func (s *Store) chunkAt(ci int64, whole bool) []byte {
	c, ok := s.chunks[ci]
	switch {
	case !ok:
		c.data = make([]byte, chunkSize)
	case c.lease != nil && c.lease.n > 0:
		fresh := make([]byte, chunkSize)
		if !whole {
			copy(fresh, c.data)
		}
		c.data, c.lease = fresh, nil
	}
	s.gen++
	c.gen, c.crcOK = s.gen, false
	s.chunks[ci] = c
	return c.data
}

// Generation returns the generation of the chunk holding off when data is
// that chunk's current bytes from off on: the store's own memory, as a lend
// hands it out, not a copy of it. A hole, a copied read, and a lent buffer
// the chunk has since left by copying on write all answer false. While the
// answer is true and the generation unchanged, the bytes are unchanged too.
func (s *Store) Generation(off int64, data []byte) (uint64, bool) {
	if len(data) == 0 {
		return 0, false
	}
	c, ok := s.chunks[off/chunkSize]
	if !ok || &data[0] != &c.data[off%chunkSize] {
		return 0, false
	}
	return c.gen, true
}

// lend returns the n bytes at off, which lie inside one chunk, as the
// store's own memory, with the lease that keeps them from changing: the
// borrower releases it once it is done with the bytes. A hole lends the
// shared zero chunk and a nil lease.
func (s *Store) lend(off int64, n int) ([]byte, *Lease) {
	ci, co := off/chunkSize, off%chunkSize
	end := co + int64(n)
	c, ok := s.chunks[ci]
	if !ok {
		return zeroChunk[co:end:end], nil
	}
	if c.lease == nil {
		c.lease = &Lease{s: s, ci: ci, buf: c.data}
		s.chunks[ci] = c
	}
	c.lease.n++
	return c.data[co:end:end], c.lease
}

// inOneChunk reports whether the n bytes at off lie inside one chunk.
func inOneChunk(off int64, n int) bool {
	return off/chunkSize == (off+int64(n)-1)/chunkSize
}

// ReadInto fills dst with the len(dst) bytes starting at off, copying each
// chunk straight from the store's backing memory. dst may hold anything on
// entry (a recycled buffer): holes are zero-filled, not skipped.
func (s *Store) ReadInto(off int64, dst []byte) {
	for len(dst) > 0 {
		ci := off / chunkSize
		co := off % chunkSize
		n := chunkSize - int(co)
		if n > len(dst) {
			n = len(dst)
		}
		if c, ok := s.chunks[ci]; ok {
			copy(dst[:n], c.data[co:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += int64(n)
	}
}

// CorruptAt flips bits in n bytes starting at off by XOR-ing mask into the
// stored data (mask must be nonzero to actually corrupt). It models silent
// media corruption: the data plane changes, the checksum sidecar does not.
// Corrupting a hole materializes the chunk, as a real flipped sector would.
func (s *Store) CorruptAt(off int64, n int, mask byte) {
	if mask == 0 {
		mask = 0xff
	}
	for n > 0 {
		co := int(off % chunkSize)
		k := min(n, chunkSize-co)
		b := s.chunkAt(off/chunkSize, false)[co : co+k]
		for i := range b {
			b[i] ^= mask
		}
		off, n = off+int64(k), n-k
	}
}

// zeroChunkCRC is the CRC32 of an all-zero chunk, so holes can be hashed
// without materializing 64KB of zeros.
var zeroChunkCRC = crc32.ChecksumIEEE(zeroChunk)

// ChunkCRC returns the CRC32 (IEEE) of the chunk-aligned block idx, hashing
// the store's backing memory in place once per change. Holes hash as all
// zeros, matching what ReadInto returns for them.
func (s *Store) ChunkCRC(idx int64) uint32 {
	c, ok := s.chunks[idx]
	if !ok {
		return zeroChunkCRC
	}
	if !c.crcOK {
		c.crc, c.crcOK = crc32.ChecksumIEEE(c.data), true
		s.chunks[idx] = c
	}
	return c.crc
}

// SetBlockCRC records the checksum for the chunk-aligned block with index
// idx (byte offset idx*ChunkSize) in the out-of-band sidecar.
func (s *Store) SetBlockCRC(idx int64, crc uint32) {
	s.crcs[idx] = crc
}

// BlockCRC returns the recorded checksum for block idx and whether one has
// ever been written. Blocks without a recorded CRC are unverifiable (fresh
// or pre-checksum data).
func (s *Store) BlockCRC(idx int64) (uint32, bool) {
	crc, ok := s.crcs[idx]
	return crc, ok
}
