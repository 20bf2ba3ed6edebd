package fleet

import (
	"slices"

	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// Agent is a deploy unit's local daemon: every HeartbeatInterval it
// reports the unit's disk health to its owning shard's leader. The dead
// and draining sets are cumulative, so one heartbeat fully refreshes a
// newly elected leader's view. Heartbeats rotate through the shard's
// replicas until one answers as leader. The agent is each beat's Replier.
type Agent struct {
	f     *Fleet
	unit  *UnitTopo
	sched *simtime.Scheduler
	rpc   *simnet.RPCNode

	// replicas are the owning shard's master node names.
	replicas []string
	believed int

	seq uint64
	// dead and draining are sorted lists every beat shares; a new disk
	// builds a new list (withDisk), never changing one in place.
	dead, draining []string
	// reqs holds the beats' request records no beat has in flight.
	reqs requests[HeartbeatArgs]

	ticker  *simtime.Ticker
	stopped bool
}

func newAgent(f *Fleet, u *UnitTopo, replicas []string) *Agent {
	return &Agent{
		f:        f,
		unit:     u,
		sched:    f.Sched,
		rpc:      simnet.NewRPCNode(f.Net, "agent:"+u.ID),
		replicas: replicas,
	}
}

func (a *Agent) start() {
	a.ticker = a.sched.Every(heartbeatInterval, a.beat)
}

func (a *Agent) stop() {
	a.stopped = true
	if a.ticker != nil {
		a.ticker.Stop()
	}
	a.rpc.Node().SetDown(true)
}

func (a *Agent) failDisk(diskID string) { a.dead = withDisk(a.dead, diskID) }

func (a *Agent) drainDisk(diskID string) { a.draining = withDisk(a.draining, diskID) }

// withDisk returns the sorted list with diskID added: list itself if it
// holds diskID, else a new list, as beats in flight may still read list.
func withDisk(list []string, diskID string) []string {
	i, ok := slices.BinarySearch(list, diskID)
	if ok {
		return list
	}
	return slices.Insert(slices.Clip(list), i, diskID)
}

func (a *Agent) beat() {
	if a.stopped {
		return
	}
	a.seq++
	q := a.reqs.get(HeartbeatArgs{Unit: a.unit.ID, Seq: a.seq, Dead: a.dead, Draining: a.draining})
	a.rpc.CallR(a.replicas[a.believed], "Heartbeat", q, 128, rpcTimeout, a)
}

// Reply takes a beat's outcome: a replica that did not answer, or does not
// lead, passes the next beat on to the next replica.
func (a *Agent) Reply(_ any, err error) {
	if !a.stopped && (err == simnet.ErrTimeout || err == ErrNotLeader) {
		a.believed = (a.believed + 1) % len(a.replicas)
	}
}
