package core

import (
	"bytes"
	"fmt"
	"testing"

	"ustore/internal/block"
	"ustore/internal/disk"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// TestReadHedgedSteadyStateAllocations pins the hedged read's cost at
// nothing: its legs, hedge timer and fallback share one record, recycled
// like the Initiator's call records and the target's and volume's IO
// records, and the wire is recycled too — the request and the response each
// travel as a pooled *simnet.Frame, a pointer that boxes nothing into
// Message.Payload, and each goes back to the network's FrameList once its
// receiver is done. The rig is a prober mounted on a mirrored pair of
// healthy targets, nothing else on the scheduler, so every allocation
// counted is the read's own.
func TestReadHedgedSteadyStateAllocations(t *testing.T) {
	const size = 64 << 10
	s := simtime.NewScheduler(1)
	net := simnet.New(s)
	cl := NewClientLib(net, "prober", "probe-svc", DefaultConfig(), nil)
	mit := cl.EnableMitigation()
	want := bytes.Repeat([]byte("hedged"), size/6+1)[:size]
	for i, space := range []SpaceID{"pri", "mir"} {
		host := fmt.Sprintf("h%d", i+1)
		d := disk.New(s, fmt.Sprintf("disk%02d", i), disk.DT01ACA300(), disk.AttachFabric)
		d.SpinUp()
		s.Run()
		vol, err := block.NewChecksumDiskVolume(d, 0, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		block.NewTarget(net, host).Export(string(space), vol)
		cl.ini.Login(host, string(space), func(_ int64, err error) {
			if err != nil {
				t.Fatalf("login %s: %v", space, err)
			}
		})
		cl.ini.Write(host, string(space), 0, want, func(err error) {
			if err != nil {
				t.Fatalf("write %s: %v", space, err)
			}
		})
		mountedOn(cl, space, host, 1<<30)
	}
	s.Run()
	mit.SetMirror("pri", "mir")

	var readErr error
	check := false
	done := func(data []byte, err error) {
		readErr = err
		if check && err == nil && !bytes.Equal(data, want) {
			readErr = fmt.Errorf("hedged read returned wrong bytes")
		}
	}
	read := func() {
		cl.ReadHedged("pri", 0, size, done)
		s.Run()
		if readErr != nil {
			t.Fatal(readErr)
		}
	}
	check = true
	for i := 0; i < 32; i++ { // warm the latency models and every free list
		read()
	}
	check = false
	if n := testing.AllocsPerRun(64, read); n != 0 {
		t.Fatalf("a warm hedged read allocates %v objects, want 0", n)
	}
	if mit.Hedges != 0 || mit.Redirects != 0 {
		t.Fatalf("healthy pair hedged %d and redirected %d reads: the rig measured more than one leg", mit.Hedges, mit.Redirects)
	}
}
