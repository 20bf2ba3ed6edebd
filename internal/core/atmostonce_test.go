package core

import (
	"errors"
	"testing"
	"time"

	"ustore/internal/fabric"
	"ustore/internal/simtime"
)

// TestAllocateRetryAcrossFailoverTakesOneSpace: the active master serves an
// Allocate whose reply is lost, then stops. The client's retry reaches the
// successor, which must answer with the space the first master committed
// instead of allocating a second one for the same request.
func TestAllocateRetryAcrossFailoverTakesOneSpace(t *testing.T) {
	c := boot(t)
	old := c.ActiveMaster()
	masters := []string{masterNode(old.Name())}
	for _, m := range c.Masters {
		if m != old {
			masters = append(masters, masterNode(m.Name()))
		}
	}
	// The client tries the active master first, and its retries outlast
	// the election that replaces it.
	cfg := c.Cfg
	cfg.RPCTimeout = 4 * time.Second
	cl := NewClientLib(c.Net, "client0", "svcA", cfg, masters)
	c.Net.Colocate("client0", "mach-client0")
	c.Net.Colocate("cl:client0", "mach-client0")

	var rep AllocateReply
	var allocErr error = errors.New("pending")
	cl.Allocate(1<<30, func(r AllocateReply, err error) { rep, allocErr = r, err })
	// The request is on the wire for a 200 µs hop. A cut is checked at
	// send, so cutting the link before the request lands lets the master
	// serve it and drops its reply.
	c.Sched.After(100*time.Microsecond, func() { c.Net.CutMachines("mach-"+old.Name(), "mach-client0") })
	c.Settle(500 * time.Millisecond) // the allocation commits to coord
	if n := len(old.allocs); n != 1 {
		t.Fatalf("the first master holds %d spaces, want the 1 it served", n)
	}
	stopMaster(old)
	c.Settle(30 * time.Second)

	if allocErr != nil {
		t.Fatalf("allocate across a master failover: %v", allocErr)
	}
	var next *Master
	for _, m := range c.Masters {
		if m != old && m.Active() {
			next = m
		}
	}
	if next == nil {
		t.Fatal("no standby took over")
	}
	if n := len(next.allocs); n != 1 {
		t.Fatalf("%d spaces allocated for one request across a master failover, want 1", n)
	}
	if next.allocs[rep.Space] == nil {
		t.Fatalf("the client was answered with %s, which the successor does not hold", rep.Space)
	}
}

// TestCrashedHostHeartbeatResendKeepsDetection: a host crashes right after it
// sends a heartbeat, so the beat's reply is lost and CallWithRetry resends the
// beat a timeout later, from the crashed host. The master counted that Seq
// already: the resend must not refresh the host, which is declared dead on
// the first scan more than hostDeadAfter intervals after its last beat.
func TestCrashedHostHeartbeatResendKeepsDetection(t *testing.T) {
	c := boot(t)
	m := c.ActiveMaster()
	var deadAt simtime.Time
	m.OnHostDead = func(h string) {
		if h == "h2" && deadAt == 0 {
			deadAt = c.Sched.Now()
		}
	}
	c.EndPoints["h2"].sendHeartbeat()
	crashed := c.Sched.Now()
	c.CrashHost("h2")
	c.Settle(10 * time.Second)

	// The beat lands one hop after the crash, and scans run once an interval.
	limit := time.Duration(hostDeadAfter+1)*c.Cfg.HeartbeatInterval + time.Millisecond
	if deadAt == 0 {
		t.Fatal("the crashed host was never declared dead")
	}
	if took := deadAt - crashed; took > limit {
		t.Fatalf("the crashed host was declared dead %v after its crash, want <= %v (its heartbeat resend refreshed it?)", took, limit)
	}
}

// TestDuplicatedExecuteJoinsCommandInFlight: every message between the
// master and the primary controller arrives twice. The duplicate of a
// topology command reaches the controller while the command holds the
// fabric lock; it must wait for the command's outcome, not be refused with
// ErrFabricLocked, whose reply would reach the master first.
func TestDuplicatedExecuteJoinsCommandInFlight(t *testing.T) {
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
	cmd := ExecuteArgs{Force: true}
	for i := 0; i < 4; i++ {
		cmd.Pairs = append(cmd.Pairs, fabric.DiskHost{Disk: fabric.DiskID(i), Host: dst})
	}
	c.Net.SetMachineDupRate("mach-"+m.Name(), c.Ctrls[0].Host(), 1)
	var errs []error
	m.executeOnController(0, cmd, func(err error) { errs = append(errs, err) })
	c.Settle(10 * time.Second)
	if len(errs) != 1 || errs[0] != nil {
		t.Fatalf("a duplicated command completed with %v, want once with no error", errs)
	}
	if got := c.Ctrls[0].executed; got != 1 {
		t.Fatalf("controller executed %d commands, want 1", got)
	}
	if got := m.DiskHost("disk00"); got != dst {
		t.Fatalf("disk00 on %s, want %s", got, dst)
	}
}
