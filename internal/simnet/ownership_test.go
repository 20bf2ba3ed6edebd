package simnet_test

// The payload-ownership rules of the block data path — data handed to a read
// callback is valid until the callback returns, and a write's payload is
// valid until the volume's done runs; after that either wire frame is
// recycled, as is every other request and response frame once its receiver
// has handled it, and a read's lent chunk goes back to its store — checked
// the only way a convention can be: every released frame, and every chunk
// buffer whose last lend is released, is overwritten with 0xDB
// (simnet.PoisonFrames, a test-only hook) and the scenarios whose callers
// sit on that path must come out exactly as they do unpoisoned. A caller that kept a payload, or a volume that stored one late,
// would read back 0xDB: the chaos harness reports that as silent corruption,
// HDFS and the archive return wrong bytes.
//
// The test lives here, in simnet's external test package, because the hook
// is simnet's and an external test package may import the packages that are
// built on simnet.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"ustore/internal/archive"
	"ustore/internal/block"
	"ustore/internal/chaos"
	"ustore/internal/core"
	"ustore/internal/disk"
	"ustore/internal/fabric"
	"ustore/internal/hdfs"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// bothWays runs scenario unpoisoned and poisoned and requires the same
// outcome text from both.
func bothWays(t *testing.T, scenario func(t *testing.T) string) {
	t.Helper()
	plain := scenario(t)
	restore := simnet.PoisonFrames()
	defer restore()
	poisoned := scenario(t)
	if plain != poisoned {
		t.Fatalf("outcome changed once released frames were poisoned — some caller keeps a read payload past its callback:\n--- unpoisoned\n%s--- poisoned\n%s", plain, poisoned)
	}
}

// TestPoisonCatchesRetainedPayload is the negative control: the hook must
// actually bite a caller that breaks the rule, whether its payload was copied
// into the reply frame (a read across two chunks) or lent from the store (a
// read inside one).
func TestPoisonCatchesRetainedPayload(t *testing.T) {
	defer simnet.PoisonFrames()()
	s := simtime.NewScheduler(1)
	net := simnet.New(s)
	tgt := block.NewTarget(net, "h1")
	d := disk.New(s, "d0", disk.DT01ACA300(), disk.AttachSATA)
	vol, err := block.NewDiskVolume(d, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	tgt.Export("sp0", vol)
	ini := block.NewInitiator(net, "cli")
	ini.Login("h1", "sp0", func(int64, error) {})
	s.Run()
	payload := bytes.Repeat([]byte{0x42}, 2*disk.ChunkSize)
	ini.Write("h1", "sp0", 0, payload, func(error) {})
	s.Run()

	for _, read := range []struct {
		name string
		off  int64
	}{{"copied", disk.ChunkSize - 4096}, {"lent", 0}} {
		var kept []byte
		ini.Read("h1", "sp0", read.off, 8192, func(data []byte, err error) {
			if err != nil || !bytes.Equal(data, payload[:8192]) {
				t.Errorf("%s: inside the callback the payload must be intact: err=%v", read.name, err)
			}
			kept = data // the bug under test
		})
		s.Run()
		if !bytes.Equal(kept, bytes.Repeat([]byte{0xDB}, 8192)) {
			t.Fatalf("a %s payload kept past its callback was not poisoned", read.name)
		}
	}
	var now []byte
	ini.Read("h1", "sp0", 0, 8192, func(data []byte, err error) { now = append(now, data...) })
	s.Run()
	if !bytes.Equal(now, payload[:8192]) {
		t.Fatal("poisoning a released lend changed the chunk it was lent from")
	}
}

// earlyDoneVolume breaks the write rule — a Volume must not keep data after
// done — by reporting a write done first and copying its payload after, when
// the target has already recycled the request frame.
type earlyDoneVolume struct{ mem []byte }

func (v *earlyDoneVolume) Size() int64 { return int64(len(v.mem)) }

func (v *earlyDoneVolume) ReadInto(off int64, length int, dst disk.ReadDest, done func([]byte, error)) {
	buf := dst.ReadBuffer(length)
	copy(buf, v.mem[off:])
	done(buf, nil)
}

func (v *earlyDoneVolume) WriteAt(off int64, data []byte, done func(error)) {
	done(nil)
	copy(v.mem[off:], data) // the bug under test
}

// TestPoisonCatchesEarlyWriteDone is the write path's negative control: a
// volume that copies a write's payload after calling done stores the poison,
// and the read-back shows it.
func TestPoisonCatchesEarlyWriteDone(t *testing.T) {
	defer simnet.PoisonFrames()()
	s := simtime.NewScheduler(1)
	net := simnet.New(s)
	block.NewTarget(net, "h1").Export("sp0", &earlyDoneVolume{mem: make([]byte, 1<<20)})
	ini := block.NewInitiator(net, "cli")
	ini.Login("h1", "sp0", func(int64, error) {})
	s.Run()
	payload := bytes.Repeat([]byte{0x42}, 8192)
	var werr error = errors.New("pending")
	ini.Write("h1", "sp0", 0, payload, func(err error) { werr = err })
	s.Run()
	if werr != nil {
		t.Fatalf("write: %v", werr)
	}
	var got []byte
	ini.Read("h1", "sp0", 0, len(payload), func(data []byte, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = append([]byte(nil), data...)
	})
	s.Run()
	if !bytes.Equal(got, bytes.Repeat([]byte{0xDB}, len(payload))) {
		t.Fatal("a payload copied after the write's done was not poisoned")
	}
}

// TestOwnershipChaosGrayDay: a gray-fault chaos day comes out the same with
// every released frame poisoned — read responses and write requests, and
// also the request frames the target gives back after serving a read, login
// or logout and the bare responses (login, write, error) the initiator gives
// back after its callback. Its schedule opens link-dup windows, so the
// private copy of a duplicated frame is released and poisoned too.
func TestOwnershipChaosGrayDay(t *testing.T) {
	bothWays(t, func(t *testing.T) string {
		o := chaos.DefaultOptions(1, 24*time.Hour)
		o.GrayFaults, o.Mitigation = true, true
		rep, err := chaos.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) > 0 {
			t.Fatalf("violations: %v", rep.Violations)
		}
		dups := 0
		for _, f := range rep.Schedule {
			if f.Kind == chaos.FaultLinkDup {
				dups++
			}
		}
		if dups == 0 {
			t.Fatal("schedule opened no link-dup window: duplicated frames are not exercised")
		}
		return rep.SummaryText() + rep.LogText() + "\n"
	})
}

// TestOwnershipProtectedStorm: the seed-1 protected restore storm comes out
// the same with every released frame poisoned, request frames and bare
// responses included, as well as the 4 MiB read responses.
func TestOwnershipProtectedStorm(t *testing.T) {
	bothWays(t, func(t *testing.T) string {
		rep, err := chaos.Run(chaos.Options{Seed: 1, Tenants: true, Storm: true, Protect: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) > 0 {
			t.Fatalf("violations: %v", rep.Violations)
		}
		return rep.SummaryText()
	})
}

// bootCluster is the rig the hdfs and archive suites use.
func bootCluster(t *testing.T) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(8 * time.Second)
	if c.ActiveMaster() == nil {
		t.Fatal("no active master")
	}
	return c
}

// TestOwnershipHDFS: the datanode's ReadBlock passes a read payload into an
// RPC reply, which outlives the callback; a file must read back intact, also
// around a crashed datanode.
func TestOwnershipHDFS(t *testing.T) {
	bothWays(t, func(t *testing.T) string {
		c := bootCluster(t)
		hdfs.NewNameNode(c.Net, "h1")
		for _, host := range []string{"h2", "h3", "h4"} {
			dn := hdfs.NewDataNode(c.Net, host, "h1", c.Client(host+"-dn", "hdfs-"+host))
			startErr := errors.New("pending")
			dn.Start(64<<30, func(err error) { startErr = err })
			c.Settle(5 * time.Second)
			if startErr != nil {
				t.Fatalf("datanode %s: %v", host, startErr)
			}
		}
		cli := hdfs.NewClient(c.Net, "cli", "h1")
		data := make([]byte, 3*hdfs.BlockSize+12345)
		for i := range data {
			data[i] = byte(i * 31)
		}
		writeErr := errors.New("pending")
		cli.WriteFile("/logs/a", data, func(err error) { writeErr = err })
		c.Settle(60 * time.Second)
		if writeErr != nil {
			t.Fatalf("write: %v", writeErr)
		}
		out := ""
		for _, crash := range []string{"", "h2"} {
			if crash != "" {
				c.CrashHost(crash)
				c.Settle(time.Second)
			}
			var got []byte
			readErr := errors.New("pending")
			cli.ReadFile("/logs/a", func(b []byte, err error) { got, readErr = b, err })
			c.Settle(60 * time.Second)
			if readErr != nil {
				t.Fatalf("read (crashed %q): %v", crash, readErr)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read (crashed %q): wrong bytes", crash)
			}
			out += fmt.Sprintf("read crashed=%q ok %d bytes\n", crash, len(got))
		}
		return out
	})
}

// TestOwnershipArchive: Get holds every shard until the last one answers,
// and a degraded read reconstructs from the held ones.
func TestOwnershipArchive(t *testing.T) {
	bothWays(t, func(t *testing.T) string {
		c := bootCluster(t)
		hosts := c.Fabric.Hosts()
		st, err := archive.New(func(slot int) *core.ClientLib {
			host := hosts[slot%len(hosts)]
			return c.Client(fmt.Sprintf("%s-arch%d", host, slot), fmt.Sprintf("archive-slot%d", slot))
		}, c.Sched, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		openErr := errors.New("pending")
		st.Open(8<<30, func(err error) { openErr = err })
		c.Settle(30 * time.Second)
		if openErr != nil {
			t.Fatalf("open: %v", openErr)
		}
		objects := make([][]byte, 4)
		for i := range objects {
			data := make([]byte, 100+i*37777)
			for j := range data {
				data[j] = byte(j*7 + i)
			}
			objects[i] = data
			putErr := errors.New("pending")
			st.Put(fmt.Sprintf("/obj%d", i), data, func(err error) { putErr = err })
			c.Settle(10 * time.Second)
			if putErr != nil {
				t.Fatalf("put %d: %v", i, putErr)
			}
		}
		getAll := func(stage string) string {
			out := ""
			for i, want := range objects {
				var got []byte
				getErr := errors.New("pending")
				st.Get(fmt.Sprintf("/obj%d", i), func(b []byte, err error) { got, getErr = b, err })
				c.Settle(30 * time.Second)
				if getErr != nil {
					t.Fatalf("%s get %d: %v", stage, i, getErr)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s get %d: wrong bytes", stage, i)
				}
				out += fmt.Sprintf("%s get %d ok %d bytes\n", stage, i, len(got))
			}
			return out + fmt.Sprintf("%s reconstructions %d\n", stage, st.Reconstructions)
		}
		out := getAll("healthy")
		if err := c.Fabric.Fail(fabric.NodeID(st.Slots()[0])); err != nil {
			t.Fatal(err)
		}
		c.Binding.Resync()
		c.Settle(2 * time.Second)
		return out + getAll("degraded")
	})
}
