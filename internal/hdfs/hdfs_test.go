package hdfs

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ustore/internal/core"
	"ustore/internal/fabric"
)

// rig is a §VII-B deployment: a UStore cluster with the namenode on one
// host and datanodes on the other three, 3-way replication.
type rig struct {
	c   *core.Cluster
	nn  *NameNode
	dns []*DataNode
	cli *Client
}

func newRig(t *testing.T) *rig {
	t.Helper()
	cfg := core.DefaultConfig()
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(8 * time.Second)
	if c.ActiveMaster() == nil {
		t.Fatal("no active master")
	}
	r := &rig{c: c}
	r.nn = NewNameNode(c.Net, "h1")
	// Datanodes on h2..h4, each with a UStore volume allocated with its
	// host as the locality hint.
	for _, host := range []string{"h2", "h3", "h4"} {
		cl := c.Client(host+"-dn", "hdfs-"+host)
		dn := NewDataNode(c.Net, host, "h1", cl)
		r.dns = append(r.dns, dn)
		var startErr error = errors.New("pending")
		dn.Start(64<<30, func(err error) { startErr = err })
		c.Settle(5 * time.Second)
		if startErr != nil {
			t.Fatalf("datanode %s: %v", host, startErr)
		}
	}
	r.cli = NewClient(c.Net, "cli", "h1")
	return r
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := newRig(t)
	data := make([]byte, 3*BlockSize+12345)
	for i := range data {
		data[i] = byte(i * 31)
	}
	var writeErr error = errors.New("pending")
	r.cli.WriteFile("/logs/a", data, func(err error) { writeErr = err })
	r.c.Settle(60 * time.Second)
	if writeErr != nil {
		t.Fatalf("write: %v", writeErr)
	}
	var got []byte
	var readErr error = errors.New("pending")
	r.cli.ReadFile("/logs/a", func(b []byte, err error) { got, readErr = b, err })
	r.c.Settle(30 * time.Second)
	if readErr != nil {
		t.Fatalf("read: %v", readErr)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("data mismatch: got %d bytes, want %d", len(got), len(data))
	}
	// Every block landed on all three datanodes.
	for _, dn := range r.dns {
		if len(dn.blocks) != 4 {
			t.Fatalf("datanode %s holds %d blocks, want 4", dn.name, len(dn.blocks))
		}
	}
}

func TestReadUnknownFile(t *testing.T) {
	r := newRig(t)
	var readErr error
	r.cli.ReadFile("/nope", func(_ []byte, err error) { readErr = err })
	r.c.Settle(5 * time.Second)
	if readErr == nil {
		t.Fatal("read of unknown file succeeded")
	}
}

func TestNotEnoughDataNodes(t *testing.T) {
	cfg := core.DefaultConfig()
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(8 * time.Second)
	NewNameNode(c.Net, "h1")
	cli := NewClient(c.Net, "cli", "h1")
	var writeErr error
	cli.WriteFile("/f", make([]byte, 100), func(err error) { writeErr = err })
	c.Settle(90 * time.Second)
	if writeErr == nil {
		t.Fatal("write with zero datanodes succeeded")
	}
}

// TestDiskSwitchDuringWrite reproduces the §VII-B experiment: switch a
// datanode's disk to another host mid-write. The write stalls for a few
// seconds (client retries) and then resumes; no data is lost.
func TestDiskSwitchDuringWrite(t *testing.T) {
	r := newRig(t)
	m := r.c.ActiveMaster()

	// Find the disk backing datanode h2's volume and its co-moving group.
	space := r.dns[0].Space()
	var look core.LookupReply
	r.dns[0].cl.Lookup(space, func(rep core.LookupReply, err error) {
		if err != nil {
			t.Errorf("lookup: %v", err)
			return
		}
		look = rep
	})
	r.c.Settle(2 * time.Second)
	srcHost := look.Host

	data := make([]byte, 16*BlockSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	var writeErr error = errors.New("pending")
	writeDone := false
	writeStart := r.c.Sched.Now()
	var writeTook time.Duration
	r.cli.WriteFile("/big", data, func(err error) {
		writeErr = err
		writeDone = true
		writeTook = r.c.Sched.Now() - writeStart
	})

	// Mid-write, command the whole leaf-hub group of the backing disk to
	// another host (a deliberate re-balance, like the paper's experiment).
	r.c.Settle(500 * time.Millisecond)
	var dst string
	for _, h := range r.c.Fabric.Hosts() {
		if h != srcHost {
			dst = h
			break
		}
	}
	var moved []string
	for _, g := range r.c.Fabric.CoMovingGroups() {
		inGroup := false
		for _, d := range g {
			if string(d) == look.DiskID {
				inGroup = true
			}
		}
		if inGroup {
			for _, d := range g {
				moved = append(moved, string(d))
			}
		}
	}
	if len(moved) == 0 {
		t.Fatal("backing disk's group not found")
	}
	cmd := core.ExecuteArgs{Force: true}
	for _, d := range moved {
		cmd.Pairs = append(cmd.Pairs, fabric.DiskHost{Disk: fabric.NodeID(d), Host: dst})
	}
	var execErr error = errors.New("pending")
	m.ExecuteTopology(cmd, func(err error) { execErr = err })

	r.c.Settle(120 * time.Second)
	if execErr != nil {
		t.Fatalf("switch command: %v", execErr)
	}
	if !writeDone || writeErr != nil {
		t.Fatalf("write did not complete: done=%v err=%v", writeDone, writeErr)
	}
	// The stall surfaces either as HDFS-level retries or as transparent
	// UStore remounts on the datanode whose disk moved ("temporary high
	// latency accessing local disks", §IV-D).
	remounts := uint64(0)
	for _, dn := range r.dns {
		remounts += dn.cl.Remounts
	}
	if r.cli.WriteStalls == 0 && remounts == 0 {
		t.Fatal("write never stalled or remounted — the switch had no observable effect")
	}
	if writeTook > 60*time.Second {
		t.Fatalf("write took %v, want seconds of stall at most", writeTook)
	}

	// Read back: correct and uninterrupted (replicas mask the moved disk).
	var got []byte
	var readErr error = errors.New("pending")
	r.cli.ReadFile("/big", func(b []byte, err error) { got, readErr = b, err })
	r.c.Settle(30 * time.Second)
	if readErr != nil {
		t.Fatalf("read: %v", readErr)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted across disk switch")
	}
}

// TestReadsSurviveDataNodeCrash shows replica masking on the read path.
func TestReadsSurviveDataNodeCrash(t *testing.T) {
	r := newRig(t)
	data := make([]byte, 2*BlockSize)
	for i := range data {
		data[i] = byte(i)
	}
	var writeErr error = errors.New("pending")
	r.cli.WriteFile("/f", data, func(err error) { writeErr = err })
	r.c.Settle(60 * time.Second)
	if writeErr != nil {
		t.Fatal(writeErr)
	}
	// Crash the host of the first datanode (h2).
	r.c.CrashHost("h2")
	r.c.Settle(1 * time.Second)
	var got []byte
	var readErr error = errors.New("pending")
	r.cli.ReadFile("/f", func(b []byte, err error) { got, readErr = b, err })
	r.c.Settle(60 * time.Second)
	if readErr != nil {
		t.Fatalf("read with crashed datanode: %v", readErr)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch reading around crashed datanode")
	}
}
