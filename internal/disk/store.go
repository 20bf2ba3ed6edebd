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
type Store struct {
	chunks map[int64]chunk
	crcs   map[int64]uint32
}

// chunk is an allocated chunk; crc is its CRC32 while crcOK (changes clear it).
type chunk struct {
	data  []byte
	crc   uint32
	crcOK bool
}

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
		n := copy(s.chunkAt(off / chunkSize)[off%chunkSize:], data)
		data, off = data[n:], off+int64(n)
	}
}

// chunkAt returns chunk ci's bytes for a caller about to change them.
func (s *Store) chunkAt(ci int64) []byte {
	c, ok := s.chunks[ci]
	if !ok {
		c.data = make([]byte, chunkSize)
	}
	c.crcOK = false
	s.chunks[ci] = c
	return c.data
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
	for ; n > 0; n-- {
		s.chunkAt(off / chunkSize)[off%chunkSize] ^= mask
		off++
	}
}

// zeroChunkCRC is the CRC32 of an all-zero chunk, so holes can be hashed
// without materializing 64KB of zeros.
var zeroChunkCRC = crc32.ChecksumIEEE(make([]byte, chunkSize))

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
