package block

import (
	"errors"

	"ustore/internal/simnet"
)

// Target serves UBLK PDUs on a simnet node — the iSCSI-target role an
// EndPoint plays for the disks currently attached to its host (§IV-B).
// Volumes are exported and revoked dynamically as the fabric moves disks.
type Target struct {
	node *simnet.Node
	// frames is the network's free list read responses are built in.
	frames  *simnet.FrameList
	volumes map[string]Volume
	// sessions tracks which (client, volume) pairs are logged in.
	sessions map[string]map[string]bool

	// reads and writes count served IOs.
	reads, writes uint64
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
		sessions: make(map[string]map[string]bool),
	}
	t.node.Handle(t.onMessage)
	return t
}

// Export publishes vol under name. Re-exporting replaces the volume.
func (t *Target) Export(name string, vol Volume) { t.volumes[name] = vol }

// Revoke removes an export; logged-in clients get StatusNoVolume on
// subsequent IO (what a client sees when its disk was switched away).
func (t *Target) Revoke(name string) { delete(t.volumes, name) }

// Down makes the target unreachable (host crash) or reachable again.
func (t *Target) Down(down bool) { t.node.SetDown(down) }

func (t *Target) onMessage(msg simnet.Message) {
	raw, ok := msg.Payload.([]byte)
	if !ok {
		return
	}
	var m Msg
	if _, err := m.decode(raw); err != nil {
		return // corrupt frame: drop, client times out
	}
	reply := t.serve(msg.From, &m)
	if reply != nil {
		buf := reply.Encode()
		t.node.Send(msg.From, buf, len(buf))
	}
}

func (t *Target) serve(from string, m *Msg) *Msg {
	switch m.Type {
	case MsgLogin:
		vol, ok := t.volumes[m.Volume]
		if !ok {
			return &Msg{Type: MsgLoginResp, Tag: m.Tag, Status: StatusNoVolume}
		}
		sess := t.sessions[from]
		if sess == nil {
			sess = make(map[string]bool)
			t.sessions[from] = sess
		}
		sess[m.Volume] = true
		return &Msg{Type: MsgLoginResp, Tag: m.Tag, Size: uint64(vol.Size())}
	case MsgLogout:
		delete(t.sessions[from], m.Volume)
		return nil
	case MsgRead:
		vol, status := t.volumeFor(from, m.Volume)
		if status != StatusOK {
			return &Msg{Type: MsgReadResp, Tag: m.Tag, Status: status}
		}
		rd := &readReply{t: t, from: from, tag: m.Tag}
		vol.ReadInto(int64(m.Offset), int(m.Length), rd, rd.done)
		t.reads++
		return nil
	case MsgWrite:
		vol, status := t.volumeFor(from, m.Volume)
		if status != StatusOK {
			return &Msg{Type: MsgWriteResp, Tag: m.Tag, Status: status}
		}
		tag := m.Tag
		vol.WriteAt(int64(m.Offset), m.Data, func(err error) {
			resp := &Msg{Type: MsgWriteResp, Tag: tag}
			if err != nil {
				resp.Status = StatusIOError
			}
			buf := resp.Encode()
			t.node.Send(from, buf, len(buf))
		})
		t.writes++
		return nil
	default:
		return nil
	}
}

// readReply is one read in service: the destination the volume copies the
// payload into and the completion that sends it. The response is built in
// place — the volume reads straight into a recycled frame behind the space
// for the header — so the payload is copied once, store to wire, and in
// steady state nothing payload-sized is allocated.
type readReply struct {
	t     *Target
	from  string
	tag   uint64
	frame []byte
}

// ReadBuffer implements disk.ReadDest: it takes the response frame when the
// disk is about to fill it, so a read waiting in a disk queue holds none.
func (r *readReply) ReadBuffer(size int) []byte {
	r.frame = r.t.frames.Get(headerLen + size)
	return r.frame[headerLen:]
}

func (r *readReply) done(data []byte, err error) {
	if err != nil {
		if r.frame != nil {
			// The medium was read but the bytes failed verification: the
			// frame goes back unused.
			r.t.frames.Put(r.frame)
		}
		status := StatusIOError
		if errors.Is(err, ErrChecksum) {
			status = StatusChecksum
		}
		buf := (&Msg{Type: MsgReadResp, Tag: r.tag, Status: status}).Encode()
		r.t.node.Send(r.from, buf, len(buf))
		return
	}
	// data is r.frame[headerLen:] (the Volume.ReadInto contract); only the
	// header is left to write.
	putHeader(r.frame, MsgReadResp, StatusOK, r.tag, len(data))
	r.t.node.Send(r.from, r.frame, len(r.frame))
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
