package simnet_test

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"ustore/internal/block"
	"ustore/internal/disk"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// TestBlockIOReturnsEveryFrame: every block PDU travels in a frame from the
// network's FrameList and goes back to it once its receiver is done — the
// target gives back requests, the initiator responses. After a warm-up that
// leaves every class it uses holding frames, a warm login, read, write and
// error reply each end with every class at the count it started with; a
// frame kept or dropped on either side would leave its class one short.
//
// Every 64 KiB read here is lent the store's chunk, so each op must also
// give back every lend it took — a warm read, a checksum-error read, a reply
// that arrives after its timeout and a duplicated delivery included: after
// it, no lend of the chunks the reads touch is still out. (A lease released
// twice panics.)
func TestBlockIOReturnsEveryFrame(t *testing.T) {
	const size = 64 << 10
	s := simtime.NewScheduler(1)
	net := simnet.New(s)
	d := disk.New(s, "d0", disk.DT01ACA300(), disk.AttachSATA)
	d.SpinUp()
	s.Run()
	vol, err := block.NewChecksumDiskVolume(d, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	block.NewTarget(net, "h1").Export("sp0", vol)
	ini := block.NewInitiator(net, "cli")
	payload := bytes.Repeat([]byte{0x42}, size)
	want := func(err, wantErr error) {
		if !errors.Is(err, wantErr) {
			t.Errorf("err = %v, want %v", err, wantErr)
		}
	}
	wrote := func(err error) { want(err, nil) }
	ops := []struct {
		name string
		run  func()
	}{
		{"login", func() { ini.Login("h1", "sp0", func(_ int64, err error) { want(err, nil) }) }},
		{"write", func() { ini.Write("h1", "sp0", 0, payload, wrote) }},
		{"read", func() {
			ini.Read("h1", "sp0", 0, size, func(data []byte, err error) {
				want(err, nil)
				if err == nil && !bytes.Equal(data, payload) {
					t.Error("read returned wrong bytes")
				}
			})
		}},
		{"checksum error reply", func() {
			ini.Read("h1", "sp0", 2*size, size, func(_ []byte, err error) { want(err, block.ErrChecksum) })
		}},
		{"not-logged-in error reply", func() {
			ini.Read("h1", "other", 0, size, func(_ []byte, err error) { want(err, block.StatusNotLoggedIn.Err()) })
		}},
		{"late reply after a timeout", func() {
			ini.Timeout = time.Millisecond // the disk alone takes longer
			ini.Read("h1", "sp0", 0, size, func(_ []byte, err error) { want(err, block.ErrTimeout) })
			ini.Timeout = 2 * time.Second
		}},
		{"duplicated delivery", func() {
			s.Run() // the other ops' messages go once
			net.SetMachineDupRate("m-cli", "m-h1", 1)
			delivered := net.Stats().Delivered
			ini.Read("h1", "sp0", 0, size, func(_ []byte, err error) { want(err, nil) })
			s.Run()
			net.SetMachineDupRate("m-cli", "m-h1", 0)
			if n := net.Stats().Delivered - delivered; n != 6 {
				t.Errorf("a duplicated read made %d deliveries, want 6 (each request and reply twice)", n)
			}
		}},
	}
	net.Colocate("cli", "m-cli")
	net.Colocate(block.TargetNode("h1"), "m-h1")
	ops[0].run()
	ini.Write("h1", "sp0", 2*size, payload, wrote)
	s.Run()
	d.CorruptSector(2*size + 512) // the third block now fails its CRC
	ops[1].run()
	s.Run()
	// Warm-up: three of each at once, so every class an op uses keeps frames.
	for i := 0; i < 3; i++ {
		for _, op := range ops {
			op.run()
		}
	}
	s.Run()
	frames := net.Frames()
	for _, op := range ops {
		before := frames.FreeCounts()
		op.run()
		s.Run()
		if after := frames.FreeCounts(); !slices.Equal(before, after) {
			t.Errorf("%s: free frames per class went %v -> %v", op.name, before, after)
		}
		for _, off := range []int64{0, 2 * size} {
			if lentOut(d.Store(), off) {
				t.Errorf("%s: a lend of the chunk at %d is still out", op.name, off)
			}
		}
	}
}

// lentOut reports whether a lend of the chunk at off is still out: a chunk
// changes in place, allocating nothing, only when none is, and copies on
// write otherwise. It rewrites the chunk's own bytes to find out.
func lentOut(st *disk.Store, off int64) bool {
	buf := make([]byte, disk.ChunkSize)
	st.ReadInto(off, buf)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st.WriteAt(off, buf)
	runtime.ReadMemStats(&after)
	return after.Mallocs != before.Mallocs
}
