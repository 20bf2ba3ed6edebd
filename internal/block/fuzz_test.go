package block

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Decode never panics and never over-consumes, no matter what
// bytes arrive (a malicious or corrupt initiator must not crash a target).
func TestPropertyDecodeRobustness(t *testing.T) {
	f := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		m, n, err := Decode(raw)
		if err != nil {
			return true // rejecting garbage is correct
		}
		return m != nil && n > 0 && n <= len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping any single byte of a valid PDU either still decodes
// (to possibly different fields) or returns an error — never panics, and
// never decodes past the original frame boundary.
func TestPropertySingleByteCorruption(t *testing.T) {
	base := (&Msg{Type: MsgWrite, Tag: 42, Volume: "unit0/disk03/sp1",
		Offset: 123456, Data: []byte("some payload bytes")}).Encode()
	f := func(pos uint16, val byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		buf := append([]byte(nil), base...)
		buf[int(pos)%len(buf)] ^= val
		m, n, err := Decode(buf)
		if err != nil {
			return true
		}
		_ = m
		return n <= len(buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeBody drives the whole codec with arbitrary frames. The seed
// corpus covers every PDU type, including the zero-copy payload carriers
// (write, read-resp) whose Data aliases the input frame. Invariants:
//
//   - Decode never panics, whatever the bytes;
//   - a successful decode consumes at least a header and never more bytes
//     than it was given;
//   - aliased payloads stay inside the consumed frame;
//   - re-encoding the decoded message and decoding again reproduces the
//     same logical message (the codec is a projection: one round trip
//     reaches its fixed point).
//
// Run `go test -fuzz FuzzDecodeBody ./internal/block/` to explore; CI runs
// just the seed corpus as a regular test.
func FuzzDecodeBody(f *testing.F) {
	payload := bytes.Repeat([]byte{0xa5, 0x5a, 0x00, 0xff}, 64)
	seeds := []*Msg{
		{Type: MsgLogin, Tag: 1, Volume: "unit0/disk00/sp1"},
		{Type: MsgLoginResp, Tag: 1, Size: 1 << 30},
		{Type: MsgRead, Tag: 2, Volume: "unit0/disk00/sp1", Offset: 4096, Length: 65536},
		{Type: MsgReadResp, Tag: 2, Status: StatusOK, Data: payload},
		{Type: MsgReadResp, Tag: 3, Status: StatusChecksum},
		{Type: MsgWrite, Tag: 4, Volume: "v", Offset: 1 << 40, Data: payload},
		{Type: MsgWrite, Tag: 5, Volume: "", Offset: 0, Data: nil},
		{Type: MsgWriteResp, Tag: 4, Status: StatusOutOfRange},
		{Type: MsgLogout, Tag: 6, Volume: "unit0/disk00/sp1"},
	}
	for _, m := range seeds {
		f.Add(m.Encode())
	}
	// Malformed variants: bad magic, unknown type, overlong inner name,
	// truncation mid-payload, and a body-length lie.
	bad := seeds[5].Encode()
	bad[4] = 99
	f.Add(bad)
	lie := seeds[0].Encode()
	binary.BigEndian.PutUint16(lie[headerLen:], 60000)
	f.Add(lie)
	short := seeds[3].Encode()
	f.Add(short[:len(short)-7])
	wrongMagic := seeds[8].Encode()
	wrongMagic[0] ^= 0xff
	f.Add(wrongMagic)
	// A discard read, whose flag rides in the header.
	f.Add((&Msg{Type: MsgRead, Tag: 7, Volume: "v", Offset: 8192, Length: 4 << 20, Discard: true}).Encode())

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, n, err := Decode(raw)
		if err != nil {
			if m != nil {
				t.Fatalf("error %v returned a non-nil message", err)
			}
			return
		}
		if n < headerLen || n > len(raw) {
			t.Fatalf("consumed %d bytes of %d (header is %d)", n, len(raw), headerLen)
		}
		if len(m.Data) > n-headerLen {
			t.Fatalf("decoded Data (%d bytes) larger than the consumed body (%d)", len(m.Data), n-headerLen)
		}
		re := m.Encode()
		m2, n2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if n2 != len(re) {
			t.Fatalf("re-encoded frame consumed %d of %d bytes", n2, len(re))
		}
		if m2.Type != m.Type || m2.Tag != m.Tag || m2.Status != m.Status ||
			m2.Volume != m.Volume || m2.Offset != m.Offset || m2.Length != m.Length ||
			m2.Size != m.Size || m2.Discard != m.Discard || !bytes.Equal(m2.Data, m.Data) {
			t.Fatalf("round trip changed the message:\n  first:  %+v\n  second: %+v", m, m2)
		}
	})
}

// A crafted frame whose inner name length exceeds the body must error, not
// slice out of range.
func TestCraftedOverlongNameLength(t *testing.T) {
	m := &Msg{Type: MsgLogin, Tag: 1, Volume: "abc"}
	buf := m.Encode()
	// Body starts at headerLen; first two bytes are the name length.
	binary.BigEndian.PutUint16(buf[headerLen:], 60000)
	if _, _, err := Decode(buf); err == nil {
		t.Fatal("overlong name length accepted")
	}
}

// A frame claiming a huge body length but truncated must report
// ErrTruncated (stream accumulates more bytes) rather than erroring hard.
func TestClaimedBodyLongerThanBuffer(t *testing.T) {
	m := &Msg{Type: MsgWrite, Tag: 1, Volume: "v", Data: make([]byte, 64)}
	buf := m.Encode()
	binary.BigEndian.PutUint32(buf[16:], 1<<20) // claim 1MB body
	if _, _, err := Decode(buf); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated (waiting for more bytes)", err)
	}
}

// Garbage after the magic with a zero body length must not be accepted as
// a valid unknown-type message silently.
func TestUnknownTypeRejected(t *testing.T) {
	m := &Msg{Type: MsgLogout, Tag: 1, Volume: "v"}
	buf := m.Encode()
	buf[4] = 200 // unknown type
	if _, _, err := Decode(buf); err == nil {
		t.Fatal("unknown PDU type accepted")
	}
}
