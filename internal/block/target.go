package block

import (
	"errors"

	"ustore/internal/disk"
	"ustore/internal/simnet"
)

// Target serves UBLK PDUs on a simnet node — the iSCSI-target role an
// EndPoint plays for the disks currently attached to its host (§IV-B).
// Volumes are exported and revoked dynamically as the fabric moves disks.
type Target struct {
	node *simnet.Node
	// frames is the network's free list: every response is built in one of
	// its frames, and every request goes back to it.
	frames  *simnet.FrameList
	volumes map[string]Volume
	// names maps each export's name to itself, so a decoded PDU reuses
	// the export's string instead of copying the name out of the frame.
	names map[string]string
	// sessions tracks which (client, volume) pairs are logged in.
	sessions map[string]map[string]bool

	// reads and writes count served IOs.
	reads, writes uint64
	// spentReads and spentWrites hold finished reply records for the next IO.
	spentReads  []*readReply
	spentWrites []*writeReply
}

// TargetNode derives the simnet node name a host's target listens on.
func TargetNode(host string) string { return "blk:" + host }

// NewTarget creates the block target for host on net. It shares the
// process's scheduler; all handlers run as simulation events.
func NewTarget(net *simnet.Network, host string) *Target {
	t := &Target{
		node:     net.Node(TargetNode(host)),
		frames:   net.Frames(),
		volumes:  make(map[string]Volume),
		names:    make(map[string]string),
		sessions: make(map[string]map[string]bool),
	}
	t.node.Handle(t.onMessage)
	return t
}

// Export publishes vol under name. Re-exporting replaces the volume.
func (t *Target) Export(name string, vol Volume) {
	t.volumes[name] = vol
	t.names[name] = name
}

// Revoke removes an export; logged-in clients get StatusNoVolume on
// subsequent IO (what a client sees when its disk was switched away).
func (t *Target) Revoke(name string) {
	delete(t.volumes, name)
	delete(t.names, name)
}

// Down makes the target unreachable (host crash) or reachable again.
func (t *Target) Down(down bool) { t.node.SetDown(down) }

func (t *Target) onMessage(msg simnet.Message) {
	fr, ok := msg.Payload.(*simnet.Frame)
	if !ok {
		return
	}
	var m Msg
	if _, err := m.decode(fr.B, t.names); err != nil {
		t.frames.Put(fr) // corrupt frame: drop, client times out
		return
	}
	t.serve(msg.From, &m, fr)
	if m.Type != MsgWrite {
		// Nothing served keeps a byte of the request: the volume name is
		// the export's own string (or a copy), the rest was copied out.
		t.frames.Put(fr)
	}
}

// serve handles one decoded PDU. fr is its frame: a write's payload aliases
// it, and the write's completion gives it back to the free list; any other
// request's frame goes back once serve returns.
func (t *Target) serve(from string, m *Msg, fr *simnet.Frame) {
	switch m.Type {
	case MsgLogin:
		vol, ok := t.volumes[m.Volume]
		if !ok {
			t.reply(from, Msg{Type: MsgLoginResp, Tag: m.Tag, Status: StatusNoVolume})
			return
		}
		sess := t.sessions[from]
		if sess == nil {
			sess = make(map[string]bool)
			t.sessions[from] = sess
		}
		sess[m.Volume] = true
		t.reply(from, Msg{Type: MsgLoginResp, Tag: m.Tag, Size: uint64(vol.Size())})
	case MsgLogout:
		delete(t.sessions[from], m.Volume)
	case MsgRead:
		vol, status := t.volumeFor(from, m.Volume)
		if status != StatusOK {
			t.reply(from, Msg{Type: MsgReadResp, Tag: m.Tag, Status: status})
			return
		}
		rd := t.newReadReply()
		rd.from, rd.tag = from, m.Tag
		var dst disk.ReadDest = rd
		if m.Discard {
			dst, rd.discarded = disk.Discard, int(m.Length)
		}
		vol.ReadInto(int64(m.Offset), int(m.Length), dst, rd.done)
		t.reads++
	case MsgWrite:
		vol, status := t.volumeFor(from, m.Volume)
		if status != StatusOK {
			t.reply(from, Msg{Type: MsgWriteResp, Tag: m.Tag, Status: status})
			t.frames.Put(fr) // refused before any volume saw the payload
			return
		}
		wr := t.newWriteReply()
		wr.from, wr.tag, wr.frame = from, m.Tag, fr
		vol.WriteAt(int64(m.Offset), m.Data, wr.done)
		t.writes++
	}
}

// reply sends a response that carries no payload, in a frame from the free
// list that the initiator gives back.
func (t *Target) reply(to string, m Msg) {
	fr := t.frames.Get(m.frameLen())
	m.encodeInto(fr.B)
	t.node.Send(to, fr, len(fr.B))
}

// readReply is one read in service: the destination the volume copies the
// payload into and the completion that sends it. The response is built in
// place — the volume reads straight into a recycled frame behind the space
// for the header — so the payload is copied once, store to wire, and in
// steady state nothing payload-sized is allocated. The record itself is
// recycled once the response is sent. A discard read's reply is a pooled
// header-only frame that declares the discarded length to the network.
type readReply struct {
	t         *Target
	from      string
	tag       uint64
	frame     *simnet.Frame
	discarded int                 // a discard read's length, else 0
	done      func([]byte, error) // finish, bound once per record
}

func (t *Target) newReadReply() *readReply {
	if n := len(t.spentReads); n > 0 {
		r := t.spentReads[n-1]
		t.spentReads = t.spentReads[:n-1]
		return r
	}
	r := &readReply{t: t}
	r.done = r.finish
	return r
}

// ReadBuffer implements disk.ReadDest: it takes the response frame when the
// disk is about to fill it, so a read waiting in a disk queue holds none.
func (r *readReply) ReadBuffer(size int) []byte {
	r.frame = r.t.frames.Get(headerLen + size)
	return r.frame.B[headerLen:]
}

func (r *readReply) finish(data []byte, err error) {
	t, from, tag, frame, discarded := r.t, r.from, r.tag, r.frame, r.discarded
	r.from, r.frame, r.discarded = "", nil, 0
	t.spentReads = append(t.spentReads, r)
	if err != nil {
		if frame != nil {
			// The medium was read but the bytes failed verification: the
			// frame goes back unused.
			t.frames.Put(frame)
		}
		status := StatusIOError
		if errors.Is(err, ErrChecksum) {
			status = StatusChecksum
		}
		t.reply(from, Msg{Type: MsgReadResp, Tag: tag, Status: status})
		return
	}
	if discarded > 0 {
		frame = t.frames.Get(headerLen) // data is nil
	}
	// data is frame.B[headerLen:] (the Volume.ReadInto contract); only the
	// header is left to write.
	putHeader(frame.B, MsgReadResp, StatusOK, tag, len(data))
	t.node.Send(from, frame, len(frame.B)+discarded)
}

// writeReply is one write in service: it owns the request's frame, whose
// payload the volume is writing, and answers the initiator when the volume
// is done. By then the disk has copied the payload into its store, or the
// write failed and left the disk queue, so the frame goes back to the free
// list for the next write; a frame dropped in flight falls to the GC.
type writeReply struct {
	t     *Target
	from  string
	tag   uint64
	frame *simnet.Frame
	done  func(error) // finish, bound once per record
}

func (t *Target) newWriteReply() *writeReply {
	if n := len(t.spentWrites); n > 0 {
		w := t.spentWrites[n-1]
		t.spentWrites = t.spentWrites[:n-1]
		return w
	}
	w := &writeReply{t: t}
	w.done = w.finish
	return w
}

func (w *writeReply) finish(err error) {
	t, from, tag, frame := w.t, w.from, w.tag, w.frame
	w.from, w.frame = "", nil
	t.spentWrites = append(t.spentWrites, w)
	resp := Msg{Type: MsgWriteResp, Tag: tag}
	if err != nil {
		resp.Status = StatusIOError
	}
	t.reply(from, resp)
	t.frames.Put(frame)
}

// volumeFor resolves an IO's volume, requiring a prior login. The IO PDUs
// carry the volume name in Msg.Volume for simplicity (real iSCSI binds a
// session to one target; we multiplex).
func (t *Target) volumeFor(from, name string) (Volume, Status) {
	if name == "" {
		return nil, StatusNoVolume
	}
	if !t.sessions[from][name] {
		return nil, StatusNotLoggedIn
	}
	vol, ok := t.volumes[name]
	if !ok {
		return nil, StatusNoVolume
	}
	return vol, StatusOK
}
