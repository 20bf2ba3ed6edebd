// Package block implements the network block protocol UStore EndPoints use
// to expose disk storage to clients (§IV-B chooses iSCSI; we implement an
// iSCSI-like protocol, "UBLK", with a real binary wire format).
//
// The protocol is a simple request/response PDU stream: a client logs in to
// a named volume exported by a Target, then issues bounded reads and writes
// by offset. PDUs carry a tag so multiple commands can be in flight. The
// encoded bytes travel over the simulated network (simnet).
package block

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic starts every PDU.
const Magic uint32 = 0x55424C4B // "UBLK"

// MsgType enumerates PDU types.
type MsgType uint8

// PDU types.
const (
	MsgLogin MsgType = iota + 1
	MsgLoginResp
	MsgRead
	MsgReadResp
	MsgWrite
	MsgWriteResp
	MsgLogout
)

// String names the PDU type.
func (t MsgType) String() string {
	names := []string{"", "login", "login-resp", "read", "read-resp", "write", "write-resp", "logout"}
	if int(t) < len(names) && t > 0 {
		return names[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Status codes carried in responses.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota
	StatusNoVolume
	StatusIOError
	StatusOutOfRange
	StatusNotLoggedIn
	// StatusChecksum means the target read the blocks but their content
	// failed CRC verification — the medium silently corrupted the data.
	StatusChecksum
)

// String names the status.
func (s Status) String() string {
	names := []string{"ok", "no-volume", "io-error", "out-of-range", "not-logged-in", "checksum"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Err converts a non-OK status to an error (nil for StatusOK). A checksum
// status wraps ErrChecksum so callers can errors.Is across the wire. Each
// known status has one prebuilt error, so a failed reply allocates none.
func (s Status) Err() error {
	if int(s) < len(statusErrs) {
		return statusErrs[s]
	}
	return fmt.Errorf("block: %s", s)
}

// statusErrs holds Err's value for each known status.
var statusErrs = [...]error{
	StatusOK:          nil,
	StatusNoVolume:    errors.New("block: " + StatusNoVolume.String()),
	StatusIOError:     errors.New("block: " + StatusIOError.String()),
	StatusOutOfRange:  errors.New("block: " + StatusOutOfRange.String()),
	StatusNotLoggedIn: errors.New("block: " + StatusNotLoggedIn.String()),
	StatusChecksum:    fmt.Errorf("%w (remote)", ErrChecksum),
}

// Msg is the decoded form of a PDU.
type Msg struct {
	Type   MsgType
	Tag    uint64
	Status Status
	// Volume names the export (login).
	Volume string
	// Offset/Length address the IO (read/write).
	Offset uint64
	Length uint32
	// Size is the volume size (login-resp).
	Size uint64
	// Discard asks for a header-only reply to a read (header flag).
	Discard bool
	// Data carries write payloads and read results.
	Data []byte
	// unexported is a volume name the decoding target does not export: the
	// name's bytes in the frame, left uncopied (Volume is then empty).
	unexported []byte
}

// header layout: magic(4) type(1) status(1) flags(1) pad(1) tag(8) bodyLen(4).
const headerLen = 20

const flagDiscard = 1 // flags bit of a discard read

// MaxBody bounds a PDU body (sanity check against corrupt streams).
const MaxBody = 64 << 20

// Errors returned by the codec.
var (
	// ErrBadMagic is returned when a frame does not start with Magic.
	ErrBadMagic = errors.New("block: bad magic")
	// ErrTruncated is returned for short frames.
	ErrTruncated = errors.New("block: truncated PDU")
	// ErrBodyTooLarge guards against absurd lengths.
	ErrBodyTooLarge = errors.New("block: body too large")
)

// bodyLen returns the encoded body size of m, so Encode can size the frame
// up front and serialize in a single allocation.
func (m *Msg) bodyLen() int {
	switch m.Type {
	case MsgLogin, MsgLogout:
		return 2 + len(m.Volume)
	case MsgLoginResp:
		return 8
	case MsgRead:
		return 2 + len(m.Volume) + 12
	case MsgReadResp:
		return len(m.Data)
	case MsgWrite:
		return 2 + len(m.Volume) + 8 + len(m.Data)
	default:
		return 0
	}
}

// Encode serializes m to wire bytes. The frame is built in one allocation:
// header and body are written directly into the output buffer, so a 64KB
// write payload is copied exactly once on its way to the wire.
func (m *Msg) Encode() []byte {
	out := make([]byte, m.frameLen())
	m.encodeInto(out)
	return out
}

// frameLen is the size of m's encoded frame.
func (m *Msg) frameLen() int { return headerLen + m.bodyLen() }

// encodeInto serializes m over out, which is exactly frameLen bytes long.
// Every byte is written, so out may be a recycled frame.
func (m *Msg) encodeInto(out []byte) {
	bl := len(out) - headerLen
	putHeader(out, m.Type, m.Status, m.Tag, bl)
	if m.Discard {
		out[6] = flagDiscard
	}
	b := out[headerLen:]
	switch m.Type {
	case MsgLogin, MsgLogout:
		binary.BigEndian.PutUint16(b, uint16(len(m.Volume)))
		copy(b[2:], m.Volume)
	case MsgLoginResp:
		binary.BigEndian.PutUint64(b, m.Size)
	case MsgRead:
		binary.BigEndian.PutUint16(b, uint16(len(m.Volume)))
		copy(b[2:], m.Volume)
		p := 2 + len(m.Volume)
		binary.BigEndian.PutUint64(b[p:], m.Offset)
		binary.BigEndian.PutUint32(b[p+8:], m.Length)
	case MsgReadResp:
		copy(b, m.Data)
	case MsgWrite:
		binary.BigEndian.PutUint16(b, uint16(len(m.Volume)))
		copy(b[2:], m.Volume)
		p := 2 + len(m.Volume)
		binary.BigEndian.PutUint64(b[p:], m.Offset)
		copy(b[p+8:], m.Data)
	}
}

// putHeader writes a PDU header over the first headerLen bytes of frame,
// every byte of it: frame may be a recycled buffer.
func putHeader(frame []byte, typ MsgType, status Status, tag uint64, bodyLen int) {
	binary.BigEndian.PutUint32(frame[0:], Magic)
	frame[4] = byte(typ)
	frame[5] = byte(status)
	frame[6], frame[7] = 0, 0
	binary.BigEndian.PutUint64(frame[8:], tag)
	binary.BigEndian.PutUint32(frame[16:], uint32(bodyLen))
}

// Decode parses one PDU from buf, returning the message and bytes consumed.
// It returns ErrTruncated if buf does not hold a complete PDU yet.
//
// For payload-carrying PDUs (read-resp, write) the returned Msg.Data aliases
// buf rather than copying it: both transports hand Decode frames whose bytes
// are not rewritten while the message is being handled (simnet delivers each
// frame to one owner, the Initiator recycles a response only after the
// call's callback has returned, and the Target recycles a write request only
// after the volume's done has run, any other request once it is served; the
// net.Conn framers only append past, and re-slice away from, consumed
// frames). Callers that retain Data beyond the life of buf must copy it.
func Decode(buf []byte) (*Msg, int, error) {
	m := new(Msg)
	n, err := m.decode(buf, nil)
	if err != nil {
		return nil, 0, err
	}
	return m, n, nil
}

// decode is Decode into a Msg the caller supplies (the simnet transports
// decode every PDU into a stack variable). A volume name found in names is
// returned as names' string rather than a fresh copy, and a non-empty name
// names lacks is left in the frame as m.unexported (the target passes its
// exports, so decoding a request allocates no name). m's contents are
// unspecified after an error.
func (m *Msg) decode(buf []byte, names map[string]string) (int, error) {
	total, err := m.decodeHeader(buf)
	if err != nil {
		return 0, err
	}
	if len(buf) < total {
		return 0, ErrTruncated
	}
	if err := m.decodeBody(buf[headerLen:total], names); err != nil {
		return 0, err
	}
	return total, nil
}

// decodeLent is decode for a frame whose payload travels apart from its
// header, as a lent read reply's does: head holds the header, and body must
// be exactly the body it declares. m.Data aliases body.
func (m *Msg) decodeLent(head, body []byte) error {
	total, err := m.decodeHeader(head)
	if err != nil {
		return err
	}
	if total != headerLen+len(body) {
		return ErrTruncated
	}
	return m.decodeBody(body, nil)
}

// decodeHeader parses the header at the start of buf into a fresh *m and
// returns the whole PDU's length.
func (m *Msg) decodeHeader(buf []byte) (int, error) {
	if len(buf) < headerLen {
		return 0, ErrTruncated
	}
	if binary.BigEndian.Uint32(buf) != Magic {
		return 0, ErrBadMagic
	}
	bodyLen := binary.BigEndian.Uint32(buf[16:])
	if bodyLen > MaxBody {
		return 0, fmt.Errorf("%w: %d", ErrBodyTooLarge, bodyLen)
	}
	*m = Msg{
		Type:    MsgType(buf[4]),
		Status:  Status(buf[5]),
		Discard: buf[6]&flagDiscard != 0,
		Tag:     binary.BigEndian.Uint64(buf[8:]),
	}
	return headerLen + int(bodyLen), nil
}

func (m *Msg) decodeBody(body []byte, names map[string]string) error {
	switch m.Type {
	case MsgLogin:
		if _, err := m.decodeName(body, names); err != nil {
			return err
		}
	case MsgLoginResp:
		if len(body) < 8 {
			return ErrTruncated
		}
		m.Size = binary.BigEndian.Uint64(body)
	case MsgRead:
		rest, err := m.decodeName(body, names)
		if err != nil {
			return err
		}
		if len(rest) < 12 {
			return ErrTruncated
		}
		m.Offset = binary.BigEndian.Uint64(rest)
		m.Length = binary.BigEndian.Uint32(rest[8:])
	case MsgReadResp:
		m.Data = body
	case MsgWrite:
		rest, err := m.decodeName(body, names)
		if err != nil {
			return err
		}
		if len(rest) < 8 {
			return ErrTruncated
		}
		m.Offset = binary.BigEndian.Uint64(rest)
		m.Data = rest[8:]
	case MsgLogout:
		if _, err := m.decodeName(body, names); err != nil {
			return err
		}
	case MsgWriteResp:
	default:
		return fmt.Errorf("block: unknown PDU type %d", m.Type)
	}
	return nil
}

// decodeName parses a u16-length-prefixed volume name into m (see decode
// for names), returning the remainder.
func (m *Msg) decodeName(body []byte, names map[string]string) ([]byte, error) {
	if len(body) < 2 {
		return nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(body))
	if len(body) < 2+n {
		return nil, ErrTruncated
	}
	raw := body[2 : 2+n]
	name, ok := names[string(raw)]
	switch {
	case ok:
		m.Volume = name
	case names != nil && n > 0:
		m.unexported = raw
	default:
		m.Volume = string(raw)
	}
	return body[2+n:], nil
}
