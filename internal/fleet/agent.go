package fleet

import (
	"sort"

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

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (a *Agent) beat() {
	if a.stopped {
		return
	}
	a.seq++
	args := HeartbeatArgs{
		Unit:     a.unit.ID,
		Seq:      a.seq,
		Dead:     sortedKeys(a.dead),
		Draining: sortedKeys(a.draining),
	}
	target := a.replicas[a.believed]
	a.rpc.Call(target, "Heartbeat", args, 128, rpcTimeout, func(res any, err error) {
		if a.stopped {
			return
		}
		if err != nil {
			a.believed = (a.believed + 1) % len(a.replicas)
			return
		}
		if rep, ok := res.(HeartbeatReply); ok && rep.NotLeader {
			a.believed = (a.believed + 1) % len(a.replicas)
		}
	})
}
