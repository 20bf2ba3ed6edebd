package block

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ustore/internal/disk"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// --- Codec ---

func TestCodecRoundTripAllTypes(t *testing.T) {
	msgs := []*Msg{
		{Type: MsgLogin, Tag: 1, Volume: "unit0/disk03/sp1"},
		{Type: MsgLoginResp, Tag: 1, Size: 3_000_000_000_000},
		{Type: MsgLoginResp, Tag: 2, Status: StatusNoVolume},
		{Type: MsgRead, Tag: 3, Volume: "v", Offset: 1 << 40, Length: 4096},
		{Type: MsgReadResp, Tag: 3, Data: []byte("payload")},
		{Type: MsgReadResp, Tag: 4, Status: StatusIOError},
		{Type: MsgWrite, Tag: 5, Volume: "v", Offset: 42, Data: []byte{1, 2, 3}},
		{Type: MsgWriteResp, Tag: 5},
		{Type: MsgLogout, Tag: 6, Volume: "v"},
	}
	for _, m := range msgs {
		buf := m.Encode()
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("%s: %v", m.Type, err)
		}
		if n != len(buf) {
			t.Fatalf("%s: consumed %d of %d", m.Type, n, len(buf))
		}
		if got.Type != m.Type || got.Tag != m.Tag || got.Status != m.Status ||
			got.Volume != m.Volume || got.Offset != m.Offset || got.Length != m.Length ||
			got.Size != m.Size || !bytes.Equal(got.Data, m.Data) {
			t.Fatalf("%s: round trip %+v -> %+v", m.Type, m, got)
		}
	}
}

func TestCodecStreamed(t *testing.T) {
	// Two PDUs concatenated decode one at a time with correct consumption.
	a := (&Msg{Type: MsgRead, Tag: 1, Volume: "v", Offset: 0, Length: 512}).Encode()
	b := (&Msg{Type: MsgWrite, Tag: 2, Volume: "v", Offset: 512, Data: []byte("xy")}).Encode()
	stream := append(append([]byte{}, a...), b...)
	m1, n1, err := Decode(stream)
	if err != nil || m1.Tag != 1 {
		t.Fatalf("first: %v %+v", err, m1)
	}
	m2, n2, err := Decode(stream[n1:])
	if err != nil || m2.Tag != 2 {
		t.Fatalf("second: %v %+v", err, m2)
	}
	if n1+n2 != len(stream) {
		t.Fatalf("consumed %d, want %d", n1+n2, len(stream))
	}
}

func TestCodecErrors(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short buf err = %v", err)
	}
	bad := (&Msg{Type: MsgLogin, Volume: "v"}).Encode()
	bad[0] = 0xFF
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic err = %v", err)
	}
	huge := (&Msg{Type: MsgLogin, Volume: "v"}).Encode()
	huge[16] = 0xFF
	huge[17] = 0xFF
	huge[18] = 0xFF
	huge[19] = 0xFF
	if _, _, err := Decode(huge); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("huge body err = %v", err)
	}
	partial := (&Msg{Type: MsgWrite, Volume: "v", Data: make([]byte, 100)}).Encode()
	if _, _, err := Decode(partial[:len(partial)-10]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("partial err = %v", err)
	}
}

// Property: any message round-trips through the codec unchanged.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(tag uint64, volRaw []byte, offset uint64, length uint32, data []byte, typeSel uint8) bool {
		if len(volRaw) > 1000 {
			volRaw = volRaw[:1000]
		}
		vol := string(volRaw)
		types := []MsgType{MsgLogin, MsgRead, MsgWrite, MsgReadResp, MsgLogout}
		m := &Msg{Type: types[int(typeSel)%len(types)], Tag: tag, Volume: vol, Offset: offset, Length: length, Data: data}
		switch m.Type {
		case MsgLogin, MsgLogout:
			m.Offset, m.Length, m.Data = 0, 0, nil
		case MsgRead:
			m.Data = nil
		case MsgReadResp:
			m.Volume, m.Offset, m.Length = "", 0, 0
		case MsgWrite:
			m.Length = 0
		}
		buf := m.Encode()
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return got.Type == m.Type && got.Tag == m.Tag && got.Volume == m.Volume &&
			got.Offset == m.Offset && got.Length == m.Length && bytes.Equal(got.Data, m.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// --- Target/Initiator over simnet ---

type simRig struct {
	sched *simtime.Scheduler
	net   *simnet.Network
	tgt   *Target
	ini   *Initiator
	d     *disk.Disk
}

func newSimRig(t *testing.T) *simRig {
	t.Helper()
	s := simtime.NewScheduler(1)
	n := simnet.New(s)
	r := &simRig{
		sched: s,
		net:   n,
		tgt:   NewTarget(n, "h1"),
		ini:   NewInitiator(n, "client1"),
		d:     disk.New(s, "disk00", disk.DT01ACA300(), disk.AttachFabric),
	}
	r.d.SpinUp()
	s.Run()
	vol, err := NewDiskVolume(r.d, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	r.tgt.Export("unit0/disk00/sp0", vol)
	return r
}

func TestLoginReadWrite(t *testing.T) {
	r := newSimRig(t)
	var size int64
	r.ini.Login("h1", "unit0/disk00/sp0", func(sz int64, err error) {
		if err != nil {
			t.Errorf("login: %v", err)
		}
		size = sz
	})
	r.sched.Run()
	if size != 1<<30 {
		t.Fatalf("size = %d", size)
	}
	payload := []byte("archival block")
	var read []byte
	r.ini.Write("h1", "unit0/disk00/sp0", 4096, payload, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
			return
		}
		r.ini.Read("h1", "unit0/disk00/sp0", 4096, len(payload), func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			read = append([]byte(nil), data...) // data dies with the callback
		})
	})
	r.sched.Run()
	if !bytes.Equal(read, payload) {
		t.Fatalf("read %q, want %q", read, payload)
	}
	if r.tgt.reads != 1 || r.tgt.writes != 1 {
		t.Fatalf("counters: r=%d w=%d", r.tgt.reads, r.tgt.writes)
	}
}

func TestIOWithoutLogin(t *testing.T) {
	r := newSimRig(t)
	var gotErr error
	r.ini.Read("h1", "unit0/disk00/sp0", 0, 512, func(_ []byte, err error) { gotErr = err })
	r.sched.Run()
	if gotErr == nil {
		t.Fatal("read without login succeeded")
	}
}

func TestLoginUnknownVolume(t *testing.T) {
	r := newSimRig(t)
	var gotErr error
	r.ini.Login("h1", "nope", func(_ int64, err error) { gotErr = err })
	r.sched.Run()
	if gotErr == nil {
		t.Fatal("login to unknown volume succeeded")
	}
}

func TestRevokedVolumeFailsIO(t *testing.T) {
	r := newSimRig(t)
	r.ini.Login("h1", "unit0/disk00/sp0", func(int64, error) {})
	r.sched.Run()
	r.tgt.Revoke("unit0/disk00/sp0")
	var gotErr error
	r.ini.Read("h1", "unit0/disk00/sp0", 0, 512, func(_ []byte, err error) { gotErr = err })
	r.sched.Run()
	if gotErr == nil {
		t.Fatal("IO to revoked volume succeeded")
	}
}

func TestTargetDownTimesOut(t *testing.T) {
	r := newSimRig(t)
	r.ini.Login("h1", "unit0/disk00/sp0", func(int64, error) {})
	r.sched.Run()
	r.tgt.Down(true)
	var gotErr error
	var doneAt simtime.Time
	r.ini.Read("h1", "unit0/disk00/sp0", 0, 512, func(_ []byte, err error) {
		gotErr = err
		doneAt = r.sched.Now()
	})
	start := r.sched.Now()
	r.sched.Run()
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	if doneAt-start != r.ini.Timeout {
		t.Fatalf("timed out after %v, want %v", doneAt-start, r.ini.Timeout)
	}
}

func TestIOOutOfVolumeBounds(t *testing.T) {
	r := newSimRig(t)
	r.ini.Login("h1", "unit0/disk00/sp0", func(int64, error) {})
	r.sched.Run()
	var gotErr error
	r.ini.Read("h1", "unit0/disk00/sp0", 1<<30-100, 512, func(_ []byte, err error) { gotErr = err })
	r.sched.Run()
	if gotErr == nil {
		t.Fatal("out-of-bounds read succeeded")
	}
}

func TestVolumeIsolation(t *testing.T) {
	// Two volumes on one disk must not see each other's data.
	r := newSimRig(t)
	v1, _ := NewDiskVolume(r.d, 1<<30, 1<<20)
	r.tgt.Export("sp1", v1)
	r.ini.Login("h1", "unit0/disk00/sp0", func(int64, error) {})
	r.ini.Login("h1", "sp1", func(int64, error) {})
	r.sched.Run()
	r.ini.Write("h1", "sp1", 0, []byte("vol1data"), func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	r.sched.Run()
	var sp0 []byte
	r.ini.Read("h1", "unit0/disk00/sp0", 0, 8, func(data []byte, err error) { sp0 = append([]byte(nil), data...) })
	r.sched.Run()
	if !bytes.Equal(sp0, make([]byte, 8)) {
		t.Fatalf("volume 0 sees volume 1's data: %q", sp0)
	}
}

func TestDiskVolumePatternClassification(t *testing.T) {
	s := simtime.NewScheduler(1)
	d := disk.New(s, "d", disk.DT01ACA300(), disk.AttachSATA)
	d.SpinUp()
	s.Run()
	v, _ := NewDiskVolume(d, 0, 1<<30)
	// The reads queue at once on an idle disk, so the last completion time
	// is the disk's busy time.
	var start, end simtime.Time
	doneAt := func([]byte, error) { end = s.Now() }
	// Sequential stream: 3 contiguous reads after the first.
	start = s.Now()
	for i := 0; i < 4; i++ {
		v.ReadInto(int64(i)*4096, 4096, nil, doneAt)
	}
	s.Run()
	seqBusy := end - start
	// Random positions cost much more.
	d2 := disk.New(s, "d2", disk.DT01ACA300(), disk.AttachSATA)
	d2.SpinUp()
	s.Run()
	v2, _ := NewDiskVolume(d2, 0, 1<<30)
	offs := []int64{0, 1 << 25, 1 << 20, 1 << 28}
	start = s.Now()
	for _, off := range offs {
		v2.ReadInto(off, 4096, nil, doneAt)
	}
	s.Run()
	randBusy := end - start
	// The sequential stream's first op is classified random (no prior
	// position), so compare with margin rather than a strict ratio.
	if randBusy < seqBusy*3 {
		t.Fatalf("random busy %v not >> sequential busy %v", randBusy, seqBusy)
	}
}

// TestStatusErr: every failed status reads as it always has, a checksum
// status still matches ErrChecksum across the wire, and building the error
// allocates nothing (it is one prebuilt value per status).
func TestStatusErr(t *testing.T) {
	want := map[Status]string{
		StatusNoVolume:    "block: no-volume",
		StatusIOError:     "block: io-error",
		StatusOutOfRange:  "block: out-of-range",
		StatusNotLoggedIn: "block: not-logged-in",
		StatusChecksum:    "block: checksum mismatch (remote)",
		Status(9):         "block: Status(9)",
	}
	for s, text := range want {
		if err := s.Err(); err == nil || err.Error() != text {
			t.Errorf("%d.Err() = %v, want %q", s, err, text)
		}
	}
	if StatusOK.Err() != nil {
		t.Error("StatusOK.Err() is not nil")
	}
	if !errors.Is(StatusChecksum.Err(), ErrChecksum) {
		t.Error("a remote checksum status does not match ErrChecksum")
	}
	if errors.Is(StatusIOError.Err(), ErrChecksum) {
		t.Error("an io-error matches ErrChecksum")
	}
	if n := testing.AllocsPerRun(100, func() { _ = StatusIOError.Err(); _ = StatusChecksum.Err() }); n != 0 {
		t.Fatalf("a failed status allocates %v objects", n)
	}
}
