package block

import (
	"errors"

	"ustore/internal/disk"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
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
	// sessions holds, per initiator, the volume names it is logged in to,
	// each with its export (nil while revoked; a revoke keeps the login),
	// so a served IO hashes the volume name once.
	sessions map[simnet.Addr]map[string]Volume

	// reads and writes count served IOs.
	reads, writes uint64
	// readReplies and writeReplies recycle the reply records.
	readReplies  simtime.FreeList[readReply]
	writeReplies simtime.FreeList[writeReply]
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
		sessions: make(map[simnet.Addr]map[string]Volume),
	}
	t.node.Handle(t.onMessage)
	return t
}

// Export publishes vol under name. Re-exporting replaces the volume.
func (t *Target) Export(name string, vol Volume) {
	t.volumes[name] = vol
	t.names[name] = name
	t.setSessions(name, vol)
}

// Revoke removes an export; logged-in clients get StatusNoVolume on
// subsequent IO (what a client sees when its disk was switched away).
func (t *Target) Revoke(name string) {
	delete(t.volumes, name)
	delete(t.names, name)
	t.setSessions(name, nil)
}

// setSessions points every login to name at vol.
func (t *Target) setSessions(name string, vol Volume) {
	for _, sess := range t.sessions {
		if _, in := sess[name]; in {
			sess[name] = vol
		}
	}
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
		// the export's own string, the rest was copied out.
		t.frames.Put(fr)
	}
}

// serve handles one decoded PDU. fr is its frame: a write's payload aliases
// it, and the write's completion gives it back to the free list; any other
// request's frame goes back once serve returns.
func (t *Target) serve(from simnet.Addr, m *Msg, fr *simnet.Frame) {
	switch m.Type {
	case MsgLogin:
		vol, ok := t.volumes[m.Volume]
		if !ok || m.unexported != nil {
			t.reply(from, Msg{Type: MsgLoginResp, Tag: m.Tag, Status: StatusNoVolume})
			return
		}
		sess := t.sessions[from]
		if sess == nil {
			sess = make(map[string]Volume)
			t.sessions[from] = sess
		}
		sess[m.Volume] = vol
		t.reply(from, Msg{Type: MsgLoginResp, Tag: m.Tag, Size: uint64(vol.Size())})
	case MsgLogout:
		if m.unexported != nil {
			delete(t.sessions[from], string(m.unexported))
		} else {
			delete(t.sessions[from], m.Volume)
		}
	case MsgRead:
		vol, status := t.volumeFor(from, m)
		if status != StatusOK {
			t.reply(from, Msg{Type: MsgReadResp, Tag: m.Tag, Status: status})
			return
		}
		rd, fresh := t.readReplies.Get()
		if fresh {
			rd.t, rd.done = t, rd.finish
		}
		rd.from, rd.tag = from, m.Tag
		var dst disk.ReadDest = rd
		if m.Discard {
			dst, rd.discarded = disk.Discard, int(m.Length)
		}
		vol.ReadInto(int64(m.Offset), int(m.Length), dst, rd.done)
		t.reads++
	case MsgWrite:
		vol, status := t.volumeFor(from, m)
		if status != StatusOK {
			t.reply(from, Msg{Type: MsgWriteResp, Tag: m.Tag, Status: status})
			t.frames.Put(fr) // refused before any volume saw the payload
			return
		}
		wr, fresh := t.writeReplies.Get()
		if fresh {
			wr.t, wr.done = t, wr.finish
		}
		wr.from, wr.tag, wr.frame = from, m.Tag, fr
		vol.WriteAt(int64(m.Offset), m.Data, wr.done)
		t.writes++
	}
}

// reply sends a response that carries no payload, in a frame from the free
// list that the initiator gives back.
func (t *Target) reply(to simnet.Addr, m Msg) {
	fr := t.frames.Get(m.frameLen())
	m.encodeInto(fr.B)
	t.node.Send(to, fr, len(fr.B))
}

// readReply is one read in service: the destination the volume reads into
// and the completion that sends the reply. A read inside one store chunk is
// lent the store's bytes (disk.LendDest): the reply is a pooled header-only
// frame that carries the lent bytes as its Body, under the read's lease, so
// the payload is never copied on its way to the initiator. Any other read is
// built in place — the volume reads straight into a recycled frame behind the
// space for the header — so its payload is copied once, store to wire. In
// steady state nothing payload-sized is allocated either way, and the record
// itself is recycled once the response is sent. A discard read's reply is a
// pooled header-only frame that declares the discarded length to the network.
type readReply struct {
	t         *Target
	from      simnet.Addr
	tag       uint64
	frame     *simnet.Frame       // the copied read's reply frame
	lease     *disk.Lease         // the lent read's lease
	discarded int                 // a discard read's length, else 0
	done      func([]byte, error) // finish, bound once per record
}

// ReadBuffer implements disk.ReadDest: it takes the response frame when the
// disk is about to fill it, so a read waiting in a disk queue holds none.
func (r *readReply) ReadBuffer(size int) []byte {
	r.frame = r.t.frames.Get(headerLen + size)
	return r.frame.B[headerLen:]
}

// Lend implements disk.LendDest: the reply holds the lease until the
// initiator puts the frame that carries the lent bytes.
func (r *readReply) Lend(lease *disk.Lease) { r.lease = lease }

func (r *readReply) finish(data []byte, err error) {
	t, from, tag, frame, lease, discarded := r.t, r.from, r.tag, r.frame, r.lease, r.discarded
	r.frame, r.lease, r.discarded = nil, nil, 0
	t.readReplies.Put(r)
	if err != nil {
		// The medium was read but the bytes failed verification: the
		// frame goes back unused, the lease before the error goes out.
		if frame != nil {
			t.frames.Put(frame)
		}
		lease.Release()
		status := StatusIOError
		if errors.Is(err, ErrChecksum) {
			status = StatusChecksum
		}
		t.reply(from, Msg{Type: MsgReadResp, Tag: tag, Status: status})
		return
	}
	if frame == nil { // lent or discarded: only the header is the target's
		frame = t.frames.Get(headerLen)
		frame.Body = data // nil for a discard read
		if lease != nil {
			frame.Lease = lease
		}
	}
	// A copied read's data is frame.B[headerLen:] (the Volume.ReadInto
	// contract); only the header is left to write.
	putHeader(frame.B, MsgReadResp, StatusOK, tag, len(data))
	t.node.Send(from, frame, headerLen+len(data)+discarded)
}

// writeReply is one write in service: it owns the request's frame, whose
// payload the volume is writing, and answers the initiator when the volume
// is done. By then the disk has copied the payload into its store, or the
// write failed and left the disk queue, so the frame goes back to the free
// list for the next write; a frame dropped in flight falls to the GC.
type writeReply struct {
	t     *Target
	from  simnet.Addr
	tag   uint64
	frame *simnet.Frame
	done  func(error) // finish, bound once per record
}

func (w *writeReply) finish(err error) {
	t, from, tag, frame := w.t, w.from, w.tag, w.frame
	w.frame = nil
	t.writeReplies.Put(w)
	resp := Msg{Type: MsgWriteResp, Tag: tag}
	if err != nil {
		resp.Status = StatusIOError
	}
	t.reply(from, resp)
	t.frames.Put(frame)
}

// volumeFor resolves an IO's volume, requiring a prior login. The IO PDUs
// carry the volume name in Msg.Volume for simplicity (real iSCSI binds a
// session to one target; we multiplex). A name this target does not export
// is looked up in the frame's bytes, without a copy: a login to it is one
// the target revoked, or none.
func (t *Target) volumeFor(from simnet.Addr, m *Msg) (Volume, Status) {
	if m.unexported != nil {
		if _, in := t.sessions[from][string(m.unexported)]; in {
			return nil, StatusNoVolume
		}
		return nil, StatusNotLoggedIn
	}
	if m.Volume == "" {
		return nil, StatusNoVolume
	}
	vol, in := t.sessions[from][m.Volume]
	switch {
	case !in:
		return nil, StatusNotLoggedIn
	case vol == nil:
		return nil, StatusNoVolume
	}
	return vol, StatusOK
}
