package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"
)

func bootMulti(t *testing.T, units int) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Units = units
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(8 * time.Second)
	if c.ActiveMaster() == nil {
		t.Fatal("no active master")
	}
	return c
}

func TestMultiUnitBoot(t *testing.T) {
	c := bootMulti(t, 2)
	if len(c.UnitRigs) != 2 {
		t.Fatalf("rigs = %d", len(c.UnitRigs))
	}
	if len(c.Disks) != 32 {
		t.Fatalf("disks = %d, want 32 across two units", len(c.Disks))
	}
	if len(c.EndPoints) != 8 {
		t.Fatalf("endpoints = %d, want 8", len(c.EndPoints))
	}
	m := c.ActiveMaster()
	// Every host from both units heartbeats.
	for _, rig := range c.UnitRigs {
		for _, h := range rig.Fabric.Hosts() {
			if hs := m.hosts[h]; hs == nil || !hs.online {
				t.Fatalf("host %s offline in SysStat", h)
			}
			if got := c.DiskCountOn(h); got != 4 {
				t.Fatalf("host %s has %d disks, want 4", h, got)
			}
		}
	}
	// Second unit's names are namespaced.
	if !slices.Contains(c.UnitRigs[0].Fabric.Hosts(), "h1") || !slices.Contains(c.UnitRigs[1].Fabric.Hosts(), "u1.h1") {
		t.Fatal("unit hosts are not namespaced h1 / u1.h1")
	}
}

func TestMultiUnitAllocationAndIO(t *testing.T) {
	c := bootMulti(t, 2)
	// A client near a unit-1 host allocates there (locality crosses the
	// namespace correctly).
	cl := c.Client("u1.h2-agent", "svc-u1")
	var rep AllocateReply
	var fail error = errors.New("pending")
	cl.Allocate(1<<30, func(r AllocateReply, err error) { rep, fail = r, err })
	c.Settle(3 * time.Second)
	if fail != nil {
		t.Fatalf("allocate: %v", fail)
	}
	if rep.Host != "u1.h2" {
		t.Fatalf("allocation on %s, want locality u1.h2", rep.Host)
	}
	cl.Mount(rep.Space, func(err error) { fail = err })
	c.Settle(3 * time.Second)
	if fail != nil {
		t.Fatalf("mount: %v", fail)
	}
	payload := []byte("unit one data")
	var got []byte
	cl.Write(rep.Space, 0, payload, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
			return
		}
		cl.Read(rep.Space, 0, len(payload), func(b []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = append([]byte(nil), b...) // b dies with the callback
		})
	})
	c.Settle(5 * time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip failed: %q", got)
	}
}

func TestMultiUnitFailoverStaysInUnit(t *testing.T) {
	c := bootMulti(t, 2)
	m := c.ActiveMaster()
	var done time.Duration
	m.OnFailoverDone = func(h string, took time.Duration) { done = took }
	// Kill a unit-1 host: its disks must move to unit-1 survivors only.
	c.CrashHost("u1.h3")
	c.Settle(30 * time.Second)
	if done == 0 {
		t.Fatal("unit-1 failover never completed")
	}
	rig := c.UnitRigs[1]
	for _, d := range rig.Fabric.Disks() {
		h := m.DiskHost(string(d))
		if h == "u1.h3" || h == "" {
			t.Fatalf("disk %s still on %q", d, h)
		}
		if !slices.Contains(rig.Fabric.Hosts(), h) {
			t.Fatalf("disk %s crossed units to %s", d, h)
		}
	}
	// Unit 0 untouched.
	for _, h := range c.UnitRigs[0].Fabric.Hosts() {
		if got := c.DiskCountOn(h); got != 4 {
			t.Fatalf("unit-0 host %s disturbed: %d disks", h, got)
		}
	}
	// Unit-1's own controllers did the work, not unit-0's.
	u1Exec := c.UnitRigs[1].Ctrls[0].executed + c.UnitRigs[1].Ctrls[1].executed
	if u1Exec == 0 {
		t.Fatal("unit-1 controllers executed nothing")
	}
}

func TestMultiUnitIndependentFailovers(t *testing.T) {
	c := bootMulti(t, 2)
	m := c.ActiveMaster()
	completions := 0
	m.OnFailoverDone = func(h string, took time.Duration) { completions++ }
	// Hosts in both units die at once; both failovers proceed in parallel
	// (each unit has its own fabric lock and controllers).
	c.CrashHost("h4")
	c.CrashHost("u1.h4")
	c.Settle(40 * time.Second)
	if completions != 2 {
		t.Fatalf("completions = %d, want both units recovered", completions)
	}
	for _, d := range c.Fabric.Disks() {
		if h := m.DiskHost(string(d)); h == "h4" || h == "" {
			t.Fatalf("unit-0 disk %s on %q", d, h)
		}
	}
	for _, d := range c.UnitRigs[1].Fabric.Disks() {
		if h := m.DiskHost(string(d)); h == "u1.h4" || h == "" {
			t.Fatalf("unit-1 disk %s on %q", d, h)
		}
	}
}
