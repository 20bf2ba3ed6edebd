package core

import (
	"errors"
	"testing"
	"time"

	"ustore/internal/fabric"
)

// TestControllerRollbackOnVerifyTimeout: if the receiving host cannot
// report the switched disks (its EndPoint is down), the Controller must
// time out, turn the switches back, and report the failure (§IV-C step 3).
func TestControllerRollbackOnVerifyTimeout(t *testing.T) {
	c := boot(t)
	m := c.ActiveMaster()
	src := m.DiskHost("disk00")
	var dst string
	for _, h := range c.Fabric.Hosts() {
		if h != src {
			dst = h
			break
		}
	}
	// Take the destination EndPoint down WITHOUT the Master noticing in
	// time (we issue the command directly to the controller).
	c.EndPoints[dst].Down(true)

	before := make(map[fabric.NodeID]int)
	for _, sw := range c.Fabric.Switches() {
		before[sw] = c.Fabric.Node(sw).Sel
	}
	cmd := ExecuteArgs{Force: true}
	for i := 0; i < 4; i++ {
		cmd.Pairs = append(cmd.Pairs, fabric.DiskHost{Disk: fabric.DiskID(i), Host: dst})
	}
	var execErr error
	m.executeOnController(0, cmd, func(err error) { execErr = err })
	c.Settle(30 * time.Second)
	if execErr == nil {
		t.Fatal("command to unreachable destination succeeded")
	}
	if c.Ctrls[0].rollbacks == 0 {
		t.Fatal("controller did not roll back")
	}
	// Switches restored.
	for sw, sel := range before {
		if got := c.Fabric.Node(sw).Sel; got != sel {
			t.Fatalf("switch %s left at %d after rollback (was %d)", sw, got, sel)
		}
	}
	// The disks are back on the source host's tree.
	c.EndPoints[dst].Down(false)
	c.Settle(10 * time.Second)
	if got := m.DiskHost("disk00"); got != src {
		t.Fatalf("disk00 on %s after rollback, want %s", got, src)
	}
}

// TestDoubleHostFailure: two of four hosts die (sequentially); all 16
// disks end up on the two survivors and IO still works.
func TestDoubleHostFailure(t *testing.T) {
	c := boot(t)
	m := c.ActiveMaster()
	// h3 and h4 run no controller and no master-critical service.
	c.CrashHost("h3")
	c.Settle(20 * time.Second)
	c.CrashHost("h4")
	c.Settle(30 * time.Second)
	for _, d := range c.Fabric.Disks() {
		h := m.DiskHost(string(d))
		if h != "h1" && h != "h2" {
			t.Fatalf("disk %s on %q after double failure", d, h)
		}
	}
	if c.DiskCountOn("h1")+c.DiskCountOn("h2") != 16 {
		t.Fatalf("disks lost: h1=%d h2=%d", c.DiskCountOn("h1"), c.DiskCountOn("h2"))
	}
	// Fresh allocation and IO still work on the shrunken cluster.
	cl := c.Client("survivor", "svc")
	var rep AllocateReply
	var fail error = errors.New("pending")
	cl.Allocate(1<<30, func(r AllocateReply, err error) { rep, fail = r, err })
	c.Settle(3 * time.Second)
	if fail != nil {
		t.Fatalf("allocate after double failure: %v", fail)
	}
	cl.Mount(rep.Space, func(err error) { fail = err })
	c.Settle(5 * time.Second)
	if fail != nil {
		t.Fatalf("mount after double failure: %v", fail)
	}
}

// TestHostRecoveryRejoins: a crashed host that comes back resumes
// heartbeating and becomes allocatable again (its disks stay where the
// failover put them — no automatic rebalance, like the paper).
func TestHostRecoveryRejoins(t *testing.T) {
	c := boot(t)
	m := c.ActiveMaster()
	c.CrashHost("h4")
	c.Settle(20 * time.Second)
	if m.hosts["h4"].online {
		t.Fatal("h4 still online in SysStat")
	}
	c.RestoreHost("h4")
	c.Settle(5 * time.Second)
	if !m.hosts["h4"].online {
		t.Fatal("restored host not online")
	}
	if got := c.DiskCountOn("h4"); got != 0 {
		t.Fatalf("restored host has %d disks, want 0 (no auto-rebalance)", got)
	}
	// Operator rebalances deliberately via a topology command.
	cmd := ExecuteArgs{Force: true}
	for _, g := range c.Fabric.CoMovingGroups() {
		if m.DiskHost(string(g[0])) == "h1" {
			for _, d := range g {
				cmd.Pairs = append(cmd.Pairs, fabric.DiskHost{Disk: d, Host: "h4"})
			}
			break
		}
	}
	if len(cmd.Pairs) == 0 {
		t.Skip("no group on h1 to rebalance")
	}
	var execErr error = errors.New("pending")
	m.ExecuteTopology(cmd, func(err error) { execErr = err })
	c.Settle(20 * time.Second)
	if execErr != nil {
		t.Fatalf("rebalance: %v", execErr)
	}
	if got := c.DiskCountOn("h4"); got == 0 {
		t.Fatal("rebalance moved nothing to h4")
	}
}

// TestMasterFailoverDuringHostFailover: the active master dies right
// after detecting a host failure; the new active master must finish the
// job (its own detection loop re-discovers the dead host).
func TestMasterFailoverDuringHostFailover(t *testing.T) {
	c := boot(t)
	m := c.ActiveMaster()
	died := make(chan struct{}, 1)
	m.OnHostDead = func(h string) {
		// Kill the master at the worst moment.
		stopMaster(m)
		select {
		case died <- struct{}{}:
		default:
		}
	}
	c.CrashHost("h3")
	c.Settle(60 * time.Second)
	next := c.ActiveMaster()
	if next == nil || next == m {
		t.Fatal("no standby master took over")
	}
	for _, d := range c.Fabric.Disks() {
		if h := next.DiskHost(string(d)); h == "h3" || h == "" {
			t.Fatalf("disk %s still on %q — failover orphaned by master death", d, h)
		}
	}
}

// TestFabricLockSerializesCommands: two concurrent topology commands to
// the same controller — the second must be refused while the first holds
// the fabric lock (§IV-C step 1).
func TestFabricLockSerializesCommands(t *testing.T) {
	c := boot(t)
	m := c.ActiveMaster()
	mk := func(group int, dst string) ExecuteArgs {
		cmd := ExecuteArgs{Force: true}
		for i := 0; i < 4; i++ {
			cmd.Pairs = append(cmd.Pairs, fabric.DiskHost{Disk: fabric.DiskID(group*4 + i), Host: dst})
		}
		return cmd
	}
	var err1, err2 error = errors.New("pending"), errors.New("pending")
	dst1 := "h2"
	if m.DiskHost("disk00") == "h2" {
		dst1 = "h3"
	}
	dst2 := "h4"
	if m.DiskHost("disk04") == "h4" {
		dst2 = "h3"
	}
	m.executeOnController(0, mk(0, dst1), func(err error) { err1 = err })
	m.executeOnController(0, mk(1, dst2), func(err error) { err2 = err })
	c.Settle(30 * time.Second)
	if err1 != nil {
		t.Fatalf("first command failed: %v", err1)
	}
	if err2 == nil || !errors.Is(err2, ErrFabricLocked) && err2.Error() != ErrFabricLocked.Error() {
		t.Fatalf("second command err = %v, want fabric-locked refusal", err2)
	}
}

// TestAllocationExhaustion: allocating more than the unit holds returns
// ErrNoSpace rather than overcommitting.
func TestAllocationExhaustion(t *testing.T) {
	c := boot(t)
	cl := c.Client("greedy", "big-svc")
	diskCap := diskParams.CapacityBytes
	// One allocation larger than any disk.
	var fail error
	cl.Allocate(diskCap+1, func(_ AllocateReply, err error) { fail = err })
	c.Settle(3 * time.Second)
	if fail == nil {
		t.Fatal("oversized allocation succeeded")
	}
	// Fill one disk with two 1.4TB allocations (service affinity keeps
	// them on one disk); the third must spill to another disk.
	var first, third AllocateReply
	size := diskCap/2 - 1<<30
	cl.Allocate(size, func(r AllocateReply, err error) {
		if err != nil {
			t.Errorf("alloc1: %v", err)
		}
		first = r
	})
	c.Settle(2 * time.Second)
	cl.Allocate(size, func(r AllocateReply, err error) {
		if err != nil {
			t.Errorf("alloc2: %v", err)
		}
	})
	c.Settle(2 * time.Second)
	cl.Allocate(size, func(r AllocateReply, err error) {
		if err != nil {
			t.Errorf("alloc3: %v", err)
		}
		third = r
	})
	c.Settle(2 * time.Second)
	if third.DiskID == first.DiskID {
		t.Fatalf("third allocation overcommitted disk %s", first.DiskID)
	}
}

// TestHeartbeatSeqStaleRejected: an out-of-order heartbeat must not
// regress SysStat.
func TestHeartbeatSeqStaleRejected(t *testing.T) {
	c := boot(t)
	m := c.ActiveMaster()
	// Deliver a forged stale heartbeat claiming h1 has no disks.
	stale := HeartbeatArgs{Host: "h1", Seq: 1, Disks: nil}
	if _, err := m.handleHeartbeat("ep:h1", stale); err != nil {
		t.Fatal(err)
	}
	// SysStat still shows h1's disks (the live EndPoint's seq is higher).
	if got := c.DiskCountOn("h1"); got == 0 {
		t.Fatal("stale heartbeat wiped SysStat")
	}
}

// TestStaleUSBReportIgnored: an out-of-order USB report must not regress
// the Controller's integrated fabric view.
func TestStaleUSBReportIgnored(t *testing.T) {
	c := boot(t)
	ctl := c.Ctrls[0]
	fresh := USBReportArgs{Host: "h9", Storage: []string{"diskX"}, Seq: 10}
	if _, err := ctl.handleUSBReport("ep:h9", fresh); err != nil {
		t.Fatal(err)
	}
	if !ctl.VisibleOn("h9", "diskX") {
		t.Fatal("fresh report not applied")
	}
	stale := USBReportArgs{Host: "h9", Storage: nil, Seq: 3}
	if _, err := ctl.handleUSBReport("ep:h9", stale); err != nil {
		t.Fatal(err)
	}
	if !ctl.VisibleOn("h9", "diskX") {
		t.Fatal("stale report regressed the USB view")
	}
}

// TestClientLibMountUnknownSpace: mounting a space that was never
// allocated fails within the mount budget rather than hanging.
func TestClientLibMountUnknownSpace(t *testing.T) {
	c := boot(t)
	cl := c.Client("client0", "svcA")
	var mountErr error
	done := false
	cl.Mount(SpaceID("unit0/disk99/sp999"), func(err error) { mountErr = err; done = true })
	c.Settle(30 * time.Second)
	if !done {
		t.Fatal("mount of unknown space never returned")
	}
	if mountErr == nil {
		t.Fatal("mount of unknown space succeeded")
	}
}
