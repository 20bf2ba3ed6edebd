package core

import (
	"errors"
	"testing"
	"time"
)

// TestPartitionedMasterFailsOverAndHealsToSingleActive partitions the active
// master replica's machine away from the quorum: a standby must take over
// (its coord session expires and the leader znode frees up), writes must
// keep flowing through the new active while plain standbys keep rejecting
// them, and after the partition heals the stale ex-master must depose itself
// so exactly one active remains.
func TestPartitionedMasterFailsOverAndHealsToSingleActive(t *testing.T) {
	c := boot(t)
	old := c.ActiveMaster()
	mach := "mach-" + old.Name()
	c.Net.IsolateMachine(mach)
	c.Settle(15 * time.Second) // session TTL + expiry sweep + re-election

	var next *Master
	for _, m := range c.Masters {
		if m != old && m.Active() {
			next = m
		}
	}
	if next == nil {
		t.Fatal("no standby took over while the active master was partitioned")
	}

	// The control plane still serves writes through the new active.
	cl := c.Client("client0", "svcA")
	var rep AllocateReply
	var allocErr error = errors.New("pending")
	cl.Allocate(1<<30, func(r AllocateReply, err error) { rep, allocErr = r, err })
	c.Settle(5 * time.Second)
	if allocErr != nil {
		t.Fatalf("allocate during master partition: %v", allocErr)
	}

	// A non-active replica rejects storage-management calls outright.
	var standby *Master
	for _, m := range c.Masters {
		if m != old && m != next {
			standby = m
		}
	}
	if _, err := standby.handleAllocate("cl:probe", AllocateArgs{Service: "svcB", Size: 1 << 20}); !errors.Is(err, ErrNotActive) {
		t.Fatalf("standby allocate error = %v, want ErrNotActive", err)
	}

	// Heal: the stale leader catches up on the deletion of its znode and
	// steps down; the quorum converges on exactly one active master.
	c.Net.RejoinMachine(mach)
	c.Settle(15 * time.Second)
	active := 0
	for _, m := range c.Masters {
		if m.Active() {
			active++
		}
	}
	if active != 1 {
		t.Fatalf("after heal, %d active masters, want 1", active)
	}
	if old.Active() {
		t.Fatal("partitioned ex-master still active after heal")
	}

	// The allocation made during the partition survived the churn.
	var lookErr error = errors.New("pending")
	cl.Lookup(rep.Space, func(_ LookupReply, err error) { lookErr = err })
	c.Settle(3 * time.Second)
	if lookErr != nil {
		t.Fatalf("lookup after heal: %v", lookErr)
	}
	if err := c.ActiveMaster().ValidateAllocations(); err != nil {
		t.Fatalf("allocation records inconsistent after heal: %v", err)
	}
}

// TestDuplicateDeliveryIdempotency turns on heavy message duplication across
// every control-plane path — host heartbeats to the masters and the client's
// RPC links — and checks that the protocols absorb the duplicates, which
// every run its handler: a duplicated Allocate is answered from the record
// its request key names, so allocations stay contiguous and
// non-overlapping; IO stays correct; and the election stays single-leader.
func TestDuplicateDeliveryIdempotency(t *testing.T) {
	c := boot(t)
	machines := append([]string(nil), c.Fabric.Hosts()...)
	for _, m := range c.Masters {
		machines = append(machines, "mach-"+m.Name())
	}
	// The client's RPC and initiator nodes run on a machine of their own:
	// simnet duplicates only messages between placed nodes.
	c.Net.Colocate("client0", "mach-client0")
	c.Net.Colocate("cl:client0", "mach-client0")
	machines = append(machines, "mach-client0")
	for i := 0; i < len(machines); i++ {
		for j := i + 1; j < len(machines); j++ {
			c.Net.SetMachineDupRate(machines[i], machines[j], 0.5)
		}
	}

	cl := c.Client("client0", "svcA")
	var first, second AllocateReply
	var err1, err2 error = errors.New("pending"), errors.New("pending")
	cl.Allocate(1<<30, func(r AllocateReply, err error) { first, err1 = r, err })
	c.Settle(3 * time.Second)
	cl.Allocate(1<<30, func(r AllocateReply, err error) { second, err2 = r, err })
	c.Settle(3 * time.Second)
	if err1 != nil || err2 != nil {
		t.Fatalf("allocate under duplication: %v / %v", err1, err2)
	}
	if first.Space == second.Space {
		t.Fatalf("duplicate delivery produced the same space twice: %s", first.Space)
	}
	// Same service, so both land on one disk: any re-executed Allocate would
	// show up as a gap or overlap in the offsets.
	if second.Offset != first.Offset+first.Size {
		t.Fatalf("second allocation at offset %d, want %d (duplicated request re-executed?)",
			second.Offset, first.Offset+first.Size)
	}

	var mountErr error = errors.New("pending")
	cl.Mount(first.Space, func(err error) { mountErr = err })
	c.Settle(3 * time.Second)
	if mountErr != nil {
		t.Fatalf("mount under duplication: %v", mountErr)
	}
	payload := []byte("dup-tolerant payload")
	var got []byte
	var ioErr error = errors.New("pending")
	cl.Write(first.Space, 0, payload, func(err error) {
		if err != nil {
			ioErr = err
			return
		}
		cl.Read(first.Space, 0, len(payload), func(data []byte, err error) { got, ioErr = append([]byte(nil), data...), err })
	})
	c.Settle(5 * time.Second)
	if ioErr != nil {
		t.Fatalf("io under duplication: %v", ioErr)
	}
	if string(got) != string(payload) {
		t.Fatalf("read %q, want %q", got, payload)
	}

	// Let duplicated heartbeats and keepalives churn for a while; the
	// cluster must stay consistent.
	c.Settle(30 * time.Second)
	active := 0
	for _, m := range c.Masters {
		if m.Active() {
			active++
		}
	}
	if active != 1 {
		t.Fatalf("%d active masters under duplication, want 1", active)
	}
	if err := c.ActiveMaster().ValidateAllocations(); err != nil {
		t.Fatalf("allocation records inconsistent under duplication: %v", err)
	}
}
