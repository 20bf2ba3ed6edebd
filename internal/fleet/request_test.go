package fleet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ustore/internal/simnet"
)

// poisonRequests makes every released request record garbage from now on:
// a foreign volume and service, a negative size, a foreign unit reporting
// a foreign disk dead and draining. A handler that read a record after it
// went home would act on that garbage. It returns the function that undoes
// it. Tests that use it must not run in parallel with other tests.
func poisonRequests() (restore func()) {
	simnet.RecordPoison = func(args any) {
		switch a := args.(type) {
		case *VolumeArgs:
			*a = VolumeArgs{Volume: "poisoned", Size: -1, Service: "poisoned"}
		case *HeartbeatArgs:
			*a = HeartbeatArgs{Unit: "poisoned", Seq: 1 << 62, Dead: []string{"poisoned"}, Draining: []string{"poisoned"}}
		}
	}
	return func() { simnet.RecordPoison = nil }
}

// requestFaultRun runs lookups, allocates and releases through unit kills,
// partitions, an isolation, a replica crash and disk faults, heals them,
// and returns the fleet, its router and a transcript: every op's outcome
// and the leaders' volume tables.
func requestFaultRun(t *testing.T) (*Fleet, *Router, string) {
	t.Helper()
	f := boot(t, testConfig())
	r := f.NewRouter("c1")
	var out strings.Builder
	var vols []string
	for i := 0; i < 12; i++ {
		vols = append(vols, fmt.Sprintf("vol-%04d", i))
		mustAlloc(t, f, r, vols[i])
	}
	round := func(n int) {
		for i, v := range vols {
			v := v
			switch (i + n) % 4 {
			case 0:
				r.Allocate(fmt.Sprintf("%s-%d", v, n), volSize, "svc", func(disks []string, err error) {
					fmt.Fprintf(&out, "%d allocate %s-%d: %v %v\n", n, v, n, disks, err)
				})
			case 1:
				r.Release(fmt.Sprintf("%s-%d", v, n-1), func(err error) {
					fmt.Fprintf(&out, "%d release %s-%d: %v\n", n, v, n-1, err)
				})
			default:
				r.Lookup(v, func(disks []string, size int64, err error) {
					fmt.Fprintf(&out, "%d lookup %s: %v %d %v\n", n, v, disks, size, err)
				})
			}
		}
	}
	round(0)
	f.PartitionUnits(0, 1)
	f.IsolateUnit(2)
	f.FailDisk(f.Topo.Units[4].Disks[0])
	f.DrainDisk(f.Topo.Units[5].Disks[1])
	f.Settle(500 * time.Millisecond)
	round(1)
	f.KillUnit("u003")
	f.CrashReplica(1, f.LeaderReplica(1))
	f.Settle(20 * time.Second)
	round(2)
	f.Settle(20 * time.Second)
	f.HealPartition(0, 1)
	f.RejoinUnit(2)
	for i := range f.Shards[1] {
		f.RestartReplica(1, i)
	}
	round(3)
	f.Settle(3 * time.Minute)
	out.WriteString(summary(f))
	return f, r, out.String()
}

// TestPoisonedRequestsSameRun: no handler reads a request record after it
// returns. The fault run with every released record poisoned must match the
// plain run, op for op.
func TestPoisonedRequestsSameRun(t *testing.T) {
	_, _, plain := requestFaultRun(t)
	restore := poisonRequests()
	defer restore()
	_, _, poisoned := requestFaultRun(t)
	if plain != poisoned {
		t.Fatalf("poisoned request records changed the run\nplain:\n%s\npoisoned:\n%s", plain, poisoned)
	}
}

// TestRequestRecordsComeHome: every request record the router and the
// agents made is back on its list once nothing is in flight, after a run
// whose kills, cuts and isolation drop requests on every path.
func TestRequestRecordsComeHome(t *testing.T) {
	f, r, _ := requestFaultRun(t)
	for _, a := range f.Agents {
		a.stop()
	}
	f.Settle(10 * time.Second)
	if made, idle := r.reqs.Counts(); made == 0 || idle != made {
		t.Errorf("router: %d of %d request records back", idle, made)
	}
	for _, a := range f.Agents {
		if made, idle := a.reqs.Counts(); made == 0 || idle != made {
			t.Errorf("agent %s: %d of %d request records back", a.unit.ID, idle, made)
		}
	}
}

// TestAgentBeatAllocs pins what a heartbeat round trip (agent, shard
// leader, reply) allocates: nothing. The request record comes from the
// agent's list, the agent is the call's Replier, the dead and draining
// lists are shared, and the leader answers with no result.
func TestAgentBeatAllocs(t *testing.T) {
	f := boot(t, testConfig())
	f.FailDisk(f.Topo.Units[0].Disks[0])
	a := f.Agents[0]
	beat := func() {
		a.beat()
		f.Settle(10 * time.Millisecond)
	}
	for i := 0; i < 400; i++ { // past the RPC timeout, so released timeouts recycle
		beat()
	}
	if got := testing.AllocsPerRun(200, beat); got != 0 {
		t.Fatalf("a heartbeat round trip allocates %.1f objects, want 0", got)
	}
}
