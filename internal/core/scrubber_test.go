package core

import (
	"bytes"
	"errors"
	"sort"
	"testing"
	"time"

	"ustore/internal/block"
	"ustore/internal/ec"
)

// TestScrubberRepairsLatentSectorErrorFromParity lays a k=2,m=1 erasure
// group across three spaces (distinct services, so distinct disks), injects
// a latent sector error into one data shard, and checks the pipeline end to
// end: the idle-window scrubber's verify-read trips the block CRC, the
// repair hook reconstructs the range from the surviving shards through the
// normal client read path, the rewrite lands, and the block reads back
// clean with the original bytes.
func TestScrubberRepairsLatentSectorErrorFromParity(t *testing.T) {
	c := boot(t, func(cfg *Config) { cfg.ScrubInterval = 100 * time.Millisecond })

	const shardBlocks = 2
	shardSize := int64(shardBlocks) * int64(block.ChecksumBlockSize)
	code, err := ec.New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 2*shardSize)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	shards := code.Split(payload)
	parity, err := code.Encode(shards)
	if err != nil {
		t.Fatal(err)
	}
	all := append(shards, parity...) // data0, data1, parity0

	names := []string{"data0", "data1", "parity0"}
	reps := make([]AllocateReply, len(all))
	cls := make([]*ClientLib, len(all))
	for i := range all {
		cls[i] = c.Client("ecclient-"+names[i], "ecsvc-"+names[i])
		allocErr := errors.New("pending")
		cls[i].Allocate(shardSize, func(r AllocateReply, err error) { reps[i], allocErr = r, err })
		c.Settle(3 * time.Second)
		if allocErr != nil {
			t.Fatalf("allocate shard %s: %v", names[i], allocErr)
		}
		mountErr := errors.New("pending")
		cls[i].Mount(reps[i].Space, func(err error) { mountErr = err })
		c.Settle(3 * time.Second)
		if mountErr != nil {
			t.Fatalf("mount shard %s: %v", names[i], mountErr)
		}
		ioErr := errors.New("pending")
		cls[i].Write(reps[i].Space, 0, all[i], func(err error) { ioErr = err })
		c.Settle(3 * time.Second)
		if ioErr != nil {
			t.Fatalf("write shard %s: %v", names[i], ioErr)
		}
	}

	// Repair hook on every endpoint: map the damaged export back to its
	// shard index, read the same range of the other shards, reconstruct.
	repair := func(ex ExportArgs, off int64, length int, done func([]byte, bool)) {
		idx := -1
		for i := range reps {
			if reps[i].Space == ex.Space {
				idx = i
			}
		}
		if idx < 0 {
			done(nil, false)
			return
		}
		got := make([][]byte, len(all))
		pending := 0
		for j := range reps {
			if j == idx {
				continue
			}
			j := j
			pending++
			cls[j].Read(reps[j].Space, off, length, func(data []byte, err error) {
				pending--
				if err == nil {
					got[j] = append([]byte(nil), data...)
				}
				if pending > 0 {
					return
				}
				if rerr := code.Reconstruct(got); rerr != nil {
					done(nil, false)
					return
				}
				done(got[idx], true)
			})
		}
	}
	hosts := make([]string, 0, len(c.EndPoints))
	for name := range c.EndPoints {
		hosts = append(hosts, name)
	}
	sort.Strings(hosts)
	for _, name := range hosts {
		if sc := c.EndPoints[name].Scrubber(); sc != nil {
			sc.SetRepairFunc(repair)
		}
	}

	// A latent sector error rots the second block of data shard 0.
	target := reps[0]
	c.Disks[target.DiskID].CorruptSector(target.Offset + int64(block.ChecksumBlockSize))

	// The scrubber sweeps one block per tick during idle windows; wait for
	// it to find and fix the rot.
	scrubStats := func() (s ScrubStats) {
		for _, name := range hosts {
			if sc := c.EndPoints[name].Scrubber(); sc != nil {
				st := sc.Stats()
				s.Scanned += st.Scanned
				s.BadBlocks += st.BadBlocks
				s.Repaired += st.Repaired
				s.Unrepaired += st.Unrepaired
			}
		}
		return s
	}
	deadline := c.Sched.Now() + 2*time.Minute
	for c.Sched.Now() < deadline && scrubStats().Repaired == 0 {
		c.Settle(time.Second)
	}
	st := scrubStats()
	if st.BadBlocks == 0 {
		t.Fatalf("scrubber never detected the latent sector error: %+v", st)
	}
	if st.Repaired == 0 {
		t.Fatalf("scrubber detected but did not repair: %+v", st)
	}
	if st.Unrepaired != 0 {
		t.Fatalf("scrubber gave up on %d blocks: %+v", st.Unrepaired, st)
	}

	// Read-back through the client path: no checksum error, original bytes.
	var got []byte
	ioErr := errors.New("pending")
	cls[0].Read(reps[0].Space, int64(block.ChecksumBlockSize), block.ChecksumBlockSize,
		func(data []byte, err error) { got, ioErr = append([]byte(nil), data...), err })
	c.Settle(5 * time.Second)
	if ioErr != nil {
		t.Fatalf("read-back after repair: %v", ioErr)
	}
	want := all[0][block.ChecksumBlockSize : 2*block.ChecksumBlockSize]
	if !bytes.Equal(got, want) {
		t.Fatal("repaired block content does not match the original shard data")
	}
}

// TestScrubberCountsUnrepairableWithoutRepairSource checks the degraded
// path: with no repair hook, detected rot is counted as unrepaired and the
// block keeps failing reads with a checksum error rather than returning bad
// bytes.
func TestScrubberCountsUnrepairableWithoutRepairSource(t *testing.T) {
	c := boot(t, func(cfg *Config) { cfg.ScrubInterval = 100 * time.Millisecond })
	cl := c.Client("client0", "svcA")
	var rep AllocateReply
	allocErr := errors.New("pending")
	cl.Allocate(int64(block.ChecksumBlockSize), func(r AllocateReply, err error) { rep, allocErr = r, err })
	c.Settle(3 * time.Second)
	if allocErr != nil {
		t.Fatal(allocErr)
	}
	mountErr := errors.New("pending")
	cl.Mount(rep.Space, func(err error) { mountErr = err })
	c.Settle(3 * time.Second)
	if mountErr != nil {
		t.Fatal(mountErr)
	}
	data := make([]byte, block.ChecksumBlockSize)
	for i := range data {
		data[i] = byte(i)
	}
	ioErr := errors.New("pending")
	cl.Write(rep.Space, 0, data, func(err error) { ioErr = err })
	c.Settle(3 * time.Second)
	if ioErr != nil {
		t.Fatal(ioErr)
	}

	c.Disks[rep.DiskID].CorruptSector(rep.Offset)
	var st ScrubStats
	deadline := c.Sched.Now() + 2*time.Minute
	for c.Sched.Now() < deadline {
		st = ScrubStats{}
		for _, ep := range c.EndPoints {
			if sc := ep.Scrubber(); sc != nil {
				s := sc.Stats()
				st.BadBlocks += s.BadBlocks
				st.Unrepaired += s.Unrepaired
				st.Repaired += s.Repaired
			}
		}
		if st.Unrepaired > 0 {
			break
		}
		c.Settle(time.Second)
	}
	if st.BadBlocks == 0 || st.Unrepaired == 0 {
		t.Fatalf("rot not detected/counted without repair source: %+v", st)
	}
	if st.Repaired != 0 {
		t.Fatalf("repair reported with no repair source: %+v", st)
	}

	readErr := errors.New("pending")
	cl.ReadWithBudget(rep.Space, 0, block.ChecksumBlockSize, 2*time.Second,
		func(_ []byte, err error) { readErr = err })
	c.Settle(10 * time.Second)
	if !errors.Is(readErr, block.ErrChecksum) {
		t.Fatalf("read of rotted block returned %v, want checksum error", readErr)
	}
}
