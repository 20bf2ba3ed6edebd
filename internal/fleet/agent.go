package fleet

import (
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// Agent is a deploy unit's local daemon: every HeartbeatInterval it
// reports the unit's disk health to its owning shard's leader. The dead
// and draining sets are cumulative, so one heartbeat fully refreshes a
// newly elected leader's view. Heartbeats rotate through the shard's
// replicas until one answers as leader.
type Agent struct {
	f     *Fleet
	unit  *UnitTopo
	sched *simtime.Scheduler
	rpc   *simnet.RPCNode

	// replicas are the owning shard's master node names.
	replicas []string
	believed int

	seq      uint64
	dead     map[string]bool
	draining map[string]bool

	ticker  *simtime.Ticker
	stopped bool
}

func newAgent(f *Fleet, u *UnitTopo, replicas []string, net *simnet.Network) *Agent {
	return &Agent{
		f:        f,
		unit:     u,
		sched:    f.Sched,
		rpc:      simnet.NewRPCNode(net, "agent:"+u.ID),
		replicas: replicas,
		dead:     make(map[string]bool),
		draining: make(map[string]bool),
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

func (a *Agent) failDisk(diskID string) { a.dead[diskID] = true }

func (a *Agent) drainDisk(diskID string) { a.draining[diskID] = true }

func (a *Agent) beat() {
	if a.stopped {
		return
	}
	a.seq++
	args := HeartbeatArgs{
		Unit:     a.unit.ID,
		Seq:      a.seq,
		Dead:     sortedKeys(nil, a.dead),
		Draining: sortedKeys(nil, a.draining),
	}
	target := a.replicas[a.believed]
	a.rpc.Call(target, "Heartbeat", args, 128, rpcTimeout, func(_ any, err error) {
		if !a.stopped && (err == simnet.ErrTimeout || err == ErrNotLeader) {
			a.believed = (a.believed + 1) % len(a.replicas)
		}
	})
}
