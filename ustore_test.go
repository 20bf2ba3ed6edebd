package ustore

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// TestPublicAPIEndToEnd drives the facade exactly as the README shows:
// boot, allocate, mount, write, read, power-manage.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Settle(BootTime)
	if cluster.ActiveMaster() == nil {
		t.Fatal("no active master")
	}

	client := cluster.Client("app1", "photos")
	var alloc AllocateReply
	var fail error = errors.New("pending")
	client.Allocate(1<<30, func(rep AllocateReply, err error) { alloc, fail = rep, err })
	cluster.Settle(3 * time.Second)
	if fail != nil {
		t.Fatalf("allocate: %v", fail)
	}
	client.Mount(alloc.Space, func(err error) { fail = err })
	cluster.Settle(3 * time.Second)
	if fail != nil {
		t.Fatalf("mount: %v", fail)
	}
	payload := []byte("public api payload")
	var got []byte
	client.Write(alloc.Space, 0, payload, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
			return
		}
		client.Read(alloc.Space, 0, len(payload), func(b []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = append([]byte(nil), b...) // b dies with the callback
		})
	})
	cluster.Settle(5 * time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %q", got)
	}

	// Power management through the facade.
	client.SetDiskPower(alloc.DiskID, false, func(err error) { fail = err })
	cluster.Settle(3 * time.Second)
	if fail != nil {
		t.Fatalf("spin down: %v", fail)
	}
	if st := cluster.Disks[alloc.DiskID].State().String(); st != "spun-down" {
		t.Fatalf("disk state = %s", st)
	}
}

// TestFacadeTypesUsable ensures the re-exported types compose (a compile-
// time-ish check that the aliases stay aligned with internal/core).
func TestFacadeTypesUsable(t *testing.T) {
	var cmd ExecuteArgs
	cmd.Pairs = append(cmd.Pairs, DiskHost{Disk: "disk00", Host: "h1"})
	if len(cmd.Pairs) != 1 {
		t.Fatal("ExecuteArgs alias broken")
	}
	p := DT01ACA300()
	if p.CapacityBytes != 3_000_000_000_000 {
		t.Fatalf("disk params = %d", p.CapacityBytes)
	}
	var fc FabricConfig
	fc.Disks = 16
	var ev MountEvent
	_ = ev.Remounted
	var lr LookupReply
	_ = lr.Host
	if BootTime < 5*time.Second {
		t.Fatal("BootTime too short for enumeration + elections")
	}
}
