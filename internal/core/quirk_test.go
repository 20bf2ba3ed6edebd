package core

import (
	"errors"
	"testing"
	"time"

	"ustore/internal/fabric"
	"ustore/internal/usb"
)

// TestIntelDeviceLimitQuirk reproduces the §V-B wrinkle end to end: with
// the Intel driver's <15-device-per-controller limit, commanding too many
// disks onto one host leaves the overflow unenumerated, the Controller's
// verification times out, and the command is rolled back — while the
// balanced configuration (each host ≤ 6 devices) works fine.
func TestIntelDeviceLimitQuirk(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HostDeviceLimit = usb.IntelRootHubDeviceLimit // 14
	cfg.VerifyTimeout = 4 * time.Second
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(8 * time.Second)
	m := c.ActiveMaster()
	if m == nil {
		t.Fatal("no active master")
	}
	// Balanced boot works: each host tree holds 2 hubs + 4 disks = 6
	// devices, well under the limit.
	for _, h := range c.Fabric.Hosts() {
		if got := c.DiskCountOn(h); got != 4 {
			t.Fatalf("host %s sees %d disks under the quirk", h, got)
		}
	}

	// Command 12 extra disks onto h4 (it would hold 16 disks + hubs = far
	// past 14 devices). The overflow cannot enumerate, verification fails,
	// and the controller rolls back.
	cmd := ExecuteArgs{Force: true}
	for g := 0; g < 3; g++ {
		for i := 0; i < 4; i++ {
			cmd.Pairs = append(cmd.Pairs, fabric.DiskHost{Disk: fabric.DiskID(g*4 + i), Host: "h4"})
		}
	}
	var execErr error = errors.New("pending")
	m.ExecuteTopology(cmd, func(err error) { execErr = err })
	c.Settle(60 * time.Second)
	if execErr == nil {
		t.Fatal("over-limit command verified despite the device quirk")
	}
	rollbacks := uint64(0)
	for _, ctl := range c.Ctrls {
		rollbacks += ctl.rollbacks
	}
	if rollbacks == 0 {
		t.Fatal("no rollback recorded")
	}
	// After rollback everything is back to balance and usable.
	c.Settle(10 * time.Second)
	for _, h := range c.Fabric.Hosts() {
		if got := c.DiskCountOn(h); got != 4 {
			t.Fatalf("host %s has %d disks after rollback", h, got)
		}
	}

	// A modest move (one group; h4 tree = 3 hubs + 8 disks = 11 <= 14)
	// still succeeds under the quirk.
	small := ExecuteArgs{Force: true}
	for i := 0; i < 4; i++ {
		small.Pairs = append(small.Pairs, fabric.DiskHost{Disk: fabric.DiskID(i), Host: "h4"})
	}
	execErr = errors.New("pending")
	m.ExecuteTopology(small, func(err error) { execErr = err })
	c.Settle(30 * time.Second)
	if execErr != nil {
		t.Fatalf("modest move under quirk failed: %v", execErr)
	}
	if got := c.DiskCountOn("h4"); got != 8 {
		t.Fatalf("h4 has %d disks, want 8", got)
	}
}
