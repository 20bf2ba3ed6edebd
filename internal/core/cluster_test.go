package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ustore/internal/fabric"
)

// stopMaster crashes a master replica and its coord store.
func stopMaster(m *Master) {
	m.elect.Stop()
	m.rpc.Node().SetDown(true)
	m.store.Stop()
}

// boot builds a default cluster and settles long enough for initial
// enumeration, master election, and first heartbeats.
func boot(t *testing.T, mutate ...func(*Config)) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	for _, m := range mutate {
		m(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(8 * time.Second)
	if c.ActiveMaster() == nil {
		t.Fatal("no active master after boot")
	}
	return c
}

func TestBootElectsOneActiveMaster(t *testing.T) {
	c := boot(t)
	active := 0
	for _, m := range c.Masters {
		if m.Active() {
			active++
		}
	}
	if active != 1 {
		t.Fatalf("active masters = %d", active)
	}
}

func TestBootSysStatSeesAllHostsAndDisks(t *testing.T) {
	c := boot(t)
	m := c.ActiveMaster()
	for _, h := range c.Fabric.Hosts() {
		if hs := m.hosts[h]; hs == nil || !hs.online {
			t.Fatalf("host %s not online in SysStat", h)
		}
	}
	for _, d := range c.Fabric.Disks() {
		if m.DiskHost(string(d)) == "" {
			t.Fatalf("disk %s unmapped in SysStat", d)
		}
	}
	// Balanced: 4 disks per host.
	for _, h := range c.Fabric.Hosts() {
		if got := c.DiskCountOn(h); got != 4 {
			t.Fatalf("host %s has %d disks", h, got)
		}
	}
}

func TestAllocateMountWriteRead(t *testing.T) {
	c := boot(t)
	cl := c.Client("client0", "backup-svc")
	var rep AllocateReply
	var allocErr error = errors.New("pending")
	cl.Allocate(1<<30, func(r AllocateReply, err error) { rep, allocErr = r, err })
	c.Settle(3 * time.Second)
	if allocErr != nil {
		t.Fatalf("allocate: %v", allocErr)
	}
	if rep.Space == "" || rep.DiskID == "" || rep.Host == "" {
		t.Fatalf("allocation incomplete: %+v", rep)
	}

	var mountErr error = errors.New("pending")
	cl.Mount(rep.Space, func(err error) { mountErr = err })
	c.Settle(3 * time.Second)
	if mountErr != nil {
		t.Fatalf("mount: %v", mountErr)
	}

	payload := []byte("ustore integration payload")
	var readBack []byte
	var ioErr error = errors.New("pending")
	cl.Write(rep.Space, 4096, payload, func(err error) {
		if err != nil {
			ioErr = err
			return
		}
		cl.Read(rep.Space, 4096, len(payload), func(data []byte, err error) {
			readBack, ioErr = append([]byte(nil), data...), err // data dies with the callback
		})
	})
	c.Settle(5 * time.Second)
	if ioErr != nil {
		t.Fatalf("io: %v", ioErr)
	}
	if !bytes.Equal(readBack, payload) {
		t.Fatalf("read %q, want %q", readBack, payload)
	}
}

func TestAllocationRulesServiceAffinityAndLocality(t *testing.T) {
	c := boot(t)
	// Same service twice: both allocations land on the same disk (§IV-A
	// rule 1).
	cl := c.Client("client0", "svcA")
	var first, second AllocateReply
	cl.Allocate(1<<30, func(r AllocateReply, err error) {
		if err != nil {
			t.Errorf("alloc1: %v", err)
			return
		}
		first = r
	})
	c.Settle(2 * time.Second)
	cl.Allocate(1<<30, func(r AllocateReply, err error) {
		if err != nil {
			t.Errorf("alloc2: %v", err)
			return
		}
		second = r
	})
	c.Settle(2 * time.Second)
	if first.DiskID == "" || first.DiskID != second.DiskID {
		t.Fatalf("service affinity violated: %s vs %s", first.DiskID, second.DiskID)
	}
	if second.Offset != first.Offset+first.Size {
		t.Fatalf("second offset = %d, want %d", second.Offset, first.Offset+first.Size)
	}

	// A client named after a host gets a disk local to that host (rule 2).
	clh3 := c.Client("h3", "svcB")
	var local AllocateReply
	clh3.Allocate(1<<30, func(r AllocateReply, err error) {
		if err != nil {
			t.Errorf("alloc3: %v", err)
			return
		}
		local = r
	})
	c.Settle(2 * time.Second)
	if local.Host != "h3" {
		t.Fatalf("locality violated: allocated on %s, client near h3", local.Host)
	}
}

func TestReleaseFreesDiskOwnership(t *testing.T) {
	c := boot(t)
	cl := c.Client("client0", "svcA")
	var rep AllocateReply
	cl.Allocate(1<<30, func(r AllocateReply, err error) { rep = r })
	c.Settle(2 * time.Second)
	var relErr error = errors.New("pending")
	cl.Release(rep.Space, func(err error) { relErr = err })
	c.Settle(2 * time.Second)
	if relErr != nil {
		t.Fatalf("release: %v", relErr)
	}
	// Lookup must now fail.
	var lookErr error
	cl.Lookup(rep.Space, func(_ LookupReply, err error) { lookErr = err })
	c.Settle(2 * time.Second)
	if lookErr == nil {
		t.Fatal("lookup of released space succeeded")
	}
}

func TestHostFailureRecovery(t *testing.T) {
	// The headline experiment: kill one of 4 hosts; the Master detects it,
	// re-homes its 4 disks via the Controller, the disks re-enumerate on
	// surviving hosts, and exports reappear — in seconds (paper: 5.8s).
	c := boot(t)
	cl := c.Client("client0", "svcA")
	var rep AllocateReply
	cl.Allocate(1<<30, func(r AllocateReply, err error) { rep = r })
	c.Settle(2 * time.Second)
	var mountErr error = errors.New("pending")
	cl.Mount(rep.Space, func(err error) { mountErr = err })
	c.Settle(2 * time.Second)
	if mountErr != nil {
		t.Fatal(mountErr)
	}

	victim := rep.Host
	var dead string
	var took time.Duration
	m := c.ActiveMaster()
	m.OnHostDead = func(h string) { dead = h }
	m.OnFailoverDone = func(h string, d time.Duration) { took = d }
	c.CrashHost(victim)
	c.Settle(20 * time.Second)

	if dead != victim {
		t.Fatalf("detected dead host %q, want %q", dead, victim)
	}
	if took == 0 {
		t.Fatal("failover never completed")
	}
	if took > 10*time.Second {
		t.Fatalf("failover took %v, want seconds (paper: 5.8s)", took)
	}
	// Every disk has left the victim.
	for _, d := range c.Fabric.Disks() {
		if h := m.DiskHost(string(d)); h == victim || h == "" {
			t.Fatalf("disk %s still on %q", d, h)
		}
	}
	// Client IO works again after transparent remount.
	payload := []byte("post failover")
	var ioErr error = errors.New("pending")
	cl.Write(rep.Space, 0, payload, func(err error) { ioErr = err })
	c.Settle(10 * time.Second)
	if ioErr != nil {
		t.Fatalf("write after failover: %v", ioErr)
	}
	if cl.Remounts == 0 {
		t.Fatal("client never remounted")
	}
	if got := cl.MountedOn(rep.Space); got == victim || got == "" {
		t.Fatalf("still mounted on %q", got)
	}
	c.Settle(time.Minute)
	recordsHome(t, map[string]interface{ Counts() (int, int) }{"master calls": &cl.calls, "client IOs": &cl.ios})
}

func TestFailoverUsesBackupControllerWhenPrimaryHostDies(t *testing.T) {
	// The primary controller runs on h1. Killing h1 forces the Master to
	// fall back to the backup controller on h2, whose MCU takes over.
	c := boot(t)
	m := c.ActiveMaster()
	var took time.Duration
	m.OnFailoverDone = func(h string, d time.Duration) { took = d }
	c.CrashHost("h1")
	c.Settle(30 * time.Second)
	if took == 0 {
		t.Fatal("failover via backup controller never completed")
	}
	for _, d := range c.Fabric.Disks() {
		if h := m.DiskHost(string(d)); h == "h1" || h == "" {
			t.Fatalf("disk %s still on %q after h1 death", d, h)
		}
	}
	if c.Ctrls[1].executed == 0 {
		t.Fatal("backup controller executed nothing")
	}
}

func TestMasterFailoverStandbyTakesOver(t *testing.T) {
	c := boot(t)
	active := c.ActiveMaster()
	cl := c.Client("client0", "svcA")
	var rep AllocateReply
	cl.Allocate(1<<30, func(r AllocateReply, err error) { rep = r })
	c.Settle(2 * time.Second)

	stopMaster(active)
	c.Settle(15 * time.Second)
	next := c.ActiveMaster()
	if next == nil || next == active {
		t.Fatal("no standby took over")
	}
	// StorAlloc survived: the new master resolves the old allocation.
	var look LookupReply
	var lookErr error = errors.New("pending")
	cl.Lookup(rep.Space, func(r LookupReply, err error) { look, lookErr = r, err })
	c.Settle(3 * time.Second)
	if lookErr != nil {
		t.Fatalf("lookup after master failover: %v", lookErr)
	}
	if look.DiskID != rep.DiskID || look.Size != rep.Size {
		t.Fatalf("allocation lost: %+v vs %+v", look, rep)
	}
	// And the cluster still does IO.
	var mountErr error = errors.New("pending")
	cl.Mount(rep.Space, func(err error) { mountErr = err })
	c.Settle(3 * time.Second)
	if mountErr != nil {
		t.Fatalf("mount via new master: %v", mountErr)
	}
}

// TestMasterFailoverKeepsSpaceIDsUnique allocates, fails the master over and
// allocates again for the same service: the new master must not hand out a
// space ID the old one already committed, and each ID must still resolve to
// its own extent.
func TestMasterFailoverKeepsSpaceIDsUnique(t *testing.T) {
	c := boot(t)
	cl := c.Client("client0", "svcA")
	allocate := func() AllocateReply {
		var rep AllocateReply
		var err error = errors.New("pending")
		cl.Allocate(1<<30, func(r AllocateReply, e error) { rep, err = r, e })
		c.Settle(3 * time.Second)
		if err != nil {
			t.Fatalf("allocate: %v", err)
		}
		return rep
	}
	first := allocate()
	stopMaster(c.ActiveMaster())
	c.Settle(15 * time.Second)
	second := allocate()
	if second.Space == first.Space {
		t.Fatalf("new master re-issued %s (offset %d, first at %d)", second.Space, second.Offset, first.Offset)
	}
	for _, rep := range []AllocateReply{first, second} {
		var look LookupReply
		var err error = errors.New("pending")
		cl.Lookup(rep.Space, func(r LookupReply, e error) { look, err = r, e })
		c.Settle(3 * time.Second)
		if err != nil || look.DiskID != rep.DiskID || look.Offset != rep.Offset {
			t.Fatalf("lookup %s = %+v, %v; want disk %s offset %d", rep.Space, look, err, rep.DiskID, rep.Offset)
		}
	}
}

func TestControllerConflictReporting(t *testing.T) {
	// Moving one disk of a leaf-hub group without Force must surface
	// Algorithm 1's conflict to the caller.
	c := boot(t)
	m := c.ActiveMaster()
	d0 := c.Fabric.Disks()[0]
	cur := m.DiskHost(string(d0))
	var target string
	for _, h := range c.Fabric.Hosts() {
		if h != cur {
			target = h
			break
		}
	}
	var gotErr error
	m.executeOnController(0, ExecuteArgs{Pairs: []fabric.DiskHost{{Disk: d0, Host: target}}},
		func(err error) { gotErr = err })
	c.Settle(3 * time.Second)
	if gotErr == nil {
		t.Fatal("conflicting single-disk move succeeded")
	}
	if c.Ctrls[0].conflicts == 0 {
		t.Fatal("controller did not count the conflict")
	}
}

func TestServiceDiskPowerControl(t *testing.T) {
	c := boot(t)
	cl := c.Client("client0", "svcA")
	var rep AllocateReply
	cl.Allocate(1<<30, func(r AllocateReply, err error) { rep = r })
	c.Settle(2 * time.Second)

	var pwrErr error = errors.New("pending")
	cl.SetDiskPower(rep.DiskID, false, func(err error) { pwrErr = err })
	c.Settle(3 * time.Second)
	if pwrErr != nil {
		t.Fatalf("spin down: %v", pwrErr)
	}
	d := c.Disks[rep.DiskID]
	if d.State().String() != "spun-down" {
		t.Fatalf("disk state = %v, want spun-down", d.State())
	}

	// Another service may not touch it.
	other := c.Client("client1", "svcB")
	var otherErr error
	other.SetDiskPower(rep.DiskID, true, func(err error) { otherErr = err })
	c.Settle(2 * time.Second)
	if otherErr == nil {
		t.Fatal("foreign service controlled the disk")
	}

	// The owner spins it back up.
	pwrErr = errors.New("pending")
	cl.SetDiskPower(rep.DiskID, true, func(err error) { pwrErr = err })
	c.Settle(10 * time.Second)
	if pwrErr != nil {
		t.Fatalf("spin up: %v", pwrErr)
	}
	if d.State().String() != "idle" {
		t.Fatalf("disk state = %v, want idle", d.State())
	}
}

func TestAutomaticSpinDownAfterIdle(t *testing.T) {
	c := boot(t, func(cfg *Config) { cfg.SpinDownIdle = 5 * time.Second })
	c.Settle(30 * time.Second)
	spunDown := 0
	for _, d := range c.Disks {
		if d.State().String() == "spun-down" {
			spunDown++
		}
	}
	if spunDown != len(c.Disks) {
		t.Fatalf("%d of %d idle disks spun down", spunDown, len(c.Disks))
	}
}
