package core

import (
	"bytes"
	"testing"
	"time"

	"ustore/internal/disk"
	"ustore/internal/simtime"
)

// powerRig boots a cluster with the endpoint power manager enabled, then
// allocates, mounts, and writes one space, returning everything a power
// test needs: the client, the space, the backing disk, and its serving
// host.
func powerRig(t *testing.T, idle time.Duration) (*Cluster, *ClientLib, SpaceID, *disk.Disk, string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SpinDownIdle = idle
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(10 * time.Second)
	if c.ActiveMaster() == nil {
		t.Fatal("no active master")
	}
	cl := c.Client("pwr-c1", "pwrsvc")
	var rep AllocateReply
	var fail error
	cl.Allocate(1<<20, func(r AllocateReply, err error) { rep, fail = r, err })
	c.Settle(2 * time.Second)
	if fail != nil {
		t.Fatalf("allocate: %v", fail)
	}
	cl.Mount(rep.Space, func(err error) { fail = err })
	c.Settle(2 * time.Second)
	if fail != nil {
		t.Fatalf("mount: %v", fail)
	}
	cl.Write(rep.Space, 0, bytes.Repeat([]byte{0xee}, 4096), func(err error) { fail = err })
	c.Settle(2 * time.Second)
	if fail != nil {
		t.Fatalf("write: %v", fail)
	}
	d := c.Disks[rep.DiskID]
	if d == nil {
		t.Fatalf("no disk %s", rep.DiskID)
	}
	host := c.ActiveMaster().DiskHost(rep.DiskID)
	return c, cl, rep.Space, d, host
}

// TestPowerManagerSpinsDownIdleDiskAndIOWakesIt covers §IV-F's default
// policy end to end: an idle disk crosses the threshold and spins down
// (power manager path), and the next client read transparently spins it
// back up — the IO just sees spin-up latency, not an error.
func TestPowerManagerSpinsDownIdleDiskAndIOWakesIt(t *testing.T) {
	c, cl, space, d, host := powerRig(t, 30*time.Second)

	c.Settle(45 * time.Second)
	if got := d.State(); got != disk.StateSpunDown {
		t.Fatalf("disk state %v after idle threshold, want spun-down", got)
	}
	pm := c.EndPoints[host].PowerManager()
	if pm == nil || pm.SpinDowns == 0 {
		t.Fatalf("power manager on %s recorded no spin-downs", host)
	}

	ups := d.SpinUpCount()
	var data []byte
	var fail error
	cl.Read(space, 0, 4096, func(b []byte, err error) { data, fail = append([]byte(nil), b...), err })
	c.Settle(15 * time.Second)
	if fail != nil {
		t.Fatalf("read against spun-down disk: %v", fail)
	}
	if len(data) != 4096 || data[0] != 0xee {
		t.Fatalf("read returned wrong data (%d bytes)", len(data))
	}
	if d.SpinUpCount() != ups+1 {
		t.Fatalf("spin-ups %d -> %d, want exactly one wake", ups, d.SpinUpCount())
	}
}

// TestSpinDownDeferredUnderInflightIO pins the in-flight rule: while a
// burst of writes is queued, power-manager scans run but must not spin the
// platters down mid-queue — the spin-down may only happen after the last
// IO completes plus the idle threshold.
func TestSpinDownDeferredUnderInflightIO(t *testing.T) {
	c, cl, space, d, _ := powerRig(t, 2*time.Second)

	var downAt simtime.Time
	d.OnStateChange(func(old, new disk.State) {
		if new == disk.StateSpunDown && downAt == 0 {
			downAt = c.Sched.Now()
		}
	})

	// A concurrent burst deep enough that the queue stays busy across
	// several 1s power-manager scans.
	const writes = 40
	acked := 0
	var lastAck simtime.Time
	var fail error
	payload := bytes.Repeat([]byte{0x3c}, 256<<10)
	for i := 0; i < writes; i++ {
		off := int64(i%4) * int64(len(payload))
		cl.Write(space, off, payload, func(err error) {
			if err != nil {
				fail = err
			}
			acked++
			lastAck = c.Sched.Now()
		})
	}
	c.Settle(30 * time.Second)
	if fail != nil {
		t.Fatalf("burst write: %v", fail)
	}
	if acked != writes {
		t.Fatalf("acked %d of %d writes", acked, writes)
	}
	if downAt == 0 {
		t.Fatal("disk never spun down after the burst went idle")
	}
	if downAt < lastAck {
		t.Fatalf("disk spun down at %v with IO still in flight (last ack %v)", downAt, lastAck)
	}
	if gap := downAt - lastAck; gap < 2*time.Second {
		t.Fatalf("spin-down %v after last ack, want >= the 2s idle threshold", gap)
	}
}

// TestSpunDownDiskServesAfterFailoverRemount is the cascading-failure
// corner: the disk spins down, its serving host crashes, the fabric moves
// the disk to a survivor, and the client's retry loop remounts there. The
// read must succeed — the new endpoint's export plus the IO wake-up path
// must work against a disk that arrives spun down.
func TestSpunDownDiskServesAfterFailoverRemount(t *testing.T) {
	c, cl, space, d, host := powerRig(t, 30*time.Second)

	c.Settle(45 * time.Second)
	if got := d.State(); got != disk.StateSpunDown {
		t.Fatalf("disk state %v before crash, want spun-down", got)
	}

	c.CrashHost(host)
	var data []byte
	var fail error
	cl.Read(space, 0, 4096, func(b []byte, err error) { data, fail = append([]byte(nil), b...), err })
	c.Settle(40 * time.Second)
	if fail != nil {
		t.Fatalf("read across failover: %v", fail)
	}
	if len(data) != 4096 || data[0] != 0xee {
		t.Fatalf("read returned wrong data (%d bytes)", len(data))
	}
	newHost := c.ActiveMaster().DiskHost(d.ID())
	if newHost == host || newHost == "" {
		t.Fatalf("disk still on crashed host %q", newHost)
	}
	if cl.MountedOn(space) != newHost {
		t.Fatalf("client mounted on %q, want the failover host %q", cl.MountedOn(space), newHost)
	}
	if got := d.State(); got == disk.StateSpunDown || got == disk.StatePoweredOff {
		t.Fatalf("disk state %v after serving the read", got)
	}
}

// TestSetDiskPowerRoundTrip drives the §IV-F service-directed path: the
// owning service spins its disk down through the Master, then a later
// explicit spin-up restores it without waiting for client IO.
func TestSetDiskPowerRoundTrip(t *testing.T) {
	c, cl, _, d, _ := powerRig(t, 0) // explicit control only: no idle policy

	var fail error
	cl.SetDiskPower(d.ID(), false, func(err error) { fail = err })
	c.Settle(2 * time.Second)
	if fail != nil {
		t.Fatalf("spin down: %v", fail)
	}
	if got := d.State(); got != disk.StateSpunDown {
		t.Fatalf("disk state %v after SetDiskPower(down), want spun-down", got)
	}

	cl.SetDiskPower(d.ID(), true, func(err error) { fail = err })
	c.Settle(d.Params().SpinUpTime + 2*time.Second)
	if fail != nil {
		t.Fatalf("spin up: %v", fail)
	}
	if got := d.State(); got != disk.StateIdle {
		t.Fatalf("disk state %v after SetDiskPower(up), want idle", got)
	}
}
