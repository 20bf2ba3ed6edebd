package hdfs

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// writeThenRead writes data as name through the rig's client, then reads it
// back, and fails the test unless both succeed with the same bytes.
func (r *rig) writeThenRead(t *testing.T, name string, data []byte, during func()) {
	t.Helper()
	var writeErr error = errors.New("pending")
	r.cli.WriteFile(name, data, func(err error) { writeErr = err })
	if during != nil {
		during()
	}
	r.c.Settle(60 * time.Second)
	if writeErr != nil {
		t.Fatalf("write: %v", writeErr)
	}
	var got []byte
	var readErr error = errors.New("pending")
	r.cli.ReadFile(name, func(b []byte, err error) { got, readErr = b, err })
	r.c.Settle(30 * time.Second)
	if readErr != nil {
		t.Fatalf("read: %v", readErr)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %d bytes back, want the %d written", len(got), len(data))
	}
}

func pattern(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 7)
	}
	return data
}

// TestDuplicatedAddBlockAddsOneBlock: with every message between the client
// and the namenode delivered twice, each AddBlock runs twice, and the
// second must answer the first's block instead of adding another.
func TestDuplicatedAddBlockAddsOneBlock(t *testing.T) {
	r := newRig(t)
	r.c.Net.Colocate("nn:h1", "h1")
	r.c.Net.Colocate("hdfs:cli", "mach-cli")
	r.c.Net.SetMachineDupRate("mach-cli", "h1", 1)
	r.writeThenRead(t, "/f", pattern(2*BlockSize), nil)
	if f := r.nn.files["/f"]; len(f.blocks) != 2 || f.size != 2*BlockSize {
		t.Fatalf("the namenode lists %d blocks and %d bytes for 2 blocks of %d written",
			len(f.blocks), f.size, BlockSize)
	}
}

// TestWriteBlockRepeatedInFlightStoresOnce: a WriteBlock delivered twice
// reaches the datanode again while its first write is in flight, and must
// write the same place rather than take a second one.
func TestWriteBlockRepeatedInFlightStoresOnce(t *testing.T) {
	r := newRig(t)
	r.c.Net.Colocate("hdfs:cli", "mach-cli")
	r.c.Net.Colocate("dn:h2", "h2") // the first block's pipeline head
	r.c.Net.SetMachineDupRate("mach-cli", "h2", 1)
	r.writeThenRead(t, "/f", pattern(BlockSize), nil)
	for _, dn := range r.dns {
		var held int64
		for _, loc := range dn.blocks {
			held += int64(loc.size)
		}
		if dn.offset != held {
			t.Errorf("datanode %s advanced its offset to %d for the %d bytes it holds", dn.name, dn.offset, held)
		}
	}
}

// TestRetriedWriteLeavesNoFailedBlock: a block whose first pipeline fails
// (its head is not ready) is written again under a new block, and the
// failed attempt's block must leave the file, or a read finds no replica
// of it.
func TestRetriedWriteLeavesNoFailedBlock(t *testing.T) {
	r := newRig(t)
	head := r.dns[0] // h2 heads the first block's pipeline
	head.ready = false
	r.writeThenRead(t, "/f", pattern(BlockSize+100), func() {
		r.c.Settle(100 * time.Millisecond) // the first attempt is refused
		head.ready = true
	})
	if r.cli.WriteStalls == 0 {
		t.Fatal("the write never stalled")
	}
	if f := r.nn.files["/f"]; len(f.blocks) != 2 || f.size != BlockSize+100 {
		t.Fatalf("the namenode lists %d blocks and %d bytes for 2 blocks and %d bytes written",
			len(f.blocks), f.size, BlockSize+100)
	}
}
