package chaos

import (
	"fmt"
	"time"

	"ustore/internal/core"
	"ustore/internal/fabric"
	"ustore/internal/model"
	"ustore/internal/paxos"
	"ustore/internal/workload"
)

// Traffic-run mode: instead of a fault schedule, the harness drives the
// multi-tenant open-loop traffic engine (internal/workload) against a
// smaller unit and reports per-class SLOs. Options.Tenants selects it;
// Storm adds the restore-storm waves and Protect arms the
// admission/throttle/autoscale stack — the protected and unprotected runs
// of one seed are the head-to-head overload experiment.

// trafficConfig is the traffic run's cluster shape: a 3-host 6-disk unit
// with the control-loop timers stretched the same way leanConfig does, no
// scrubber or power manager (the engine and protector own disk power), and
// checksums off so the read-heavy tenant workload needs no initial write
// pass (reads of unwritten space return zeros deterministically).
func trafficConfig(o Options, topts workload.TrafficOptions, hist *model.History) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.Fabric = fabric.Config{
		Hosts: []string{"h1", "h2", "h3"},
		Disks: 6,
		FanIn: 4,
	}
	cfg.HeartbeatInterval = 30 * time.Second
	cfg.ElectionTTL = 30 * time.Minute
	cfg.Paxos = paxos.Config{
		HeartbeatInterval:   time.Minute,
		ElectionTimeoutBase: 4 * time.Minute,
		PhaseTimeout:        2 * time.Minute,
	}
	cfg.CoordSweepInterval = 2 * time.Minute
	cfg.ScrubInterval = 0
	cfg.SpinDownIdle = 0
	cfg.DisableChecksums = true
	cfg.RPCTimeout = 2 * time.Second
	cfg.Recorder = o.Recorder
	cfg.History = hist
	if o.Protect {
		// Arms the master-side per-caller metadata throttle; the rest of
		// the stack (admission, tenant buckets, autoscaler) is created by
		// the engine as a core.Protector over the booted cluster.
		cfg.Protection = topts.ProtectionConfig()
	}
	return cfg
}

// trafficOptions derives the engine options for a run from the shared
// defaults — goldens, CI smoke, and tests all go through here, so a seed
// fully determines the run.
func trafficOptions(o Options) workload.TrafficOptions {
	topts := workload.DefaultTrafficOptions(o.Seed)
	topts.StormEnabled = o.Storm
	topts.Protect = o.Protect
	return topts
}

// runTraffic executes a traffic run and returns its report (Report.SLO
// carries the per-class outcome; the usual fault-schedule fields stay
// empty).
func runTraffic(o Options) (*Report, error) {
	topts := trafficOptions(o)
	hist := model.NewHistory()
	c, err := core.NewCluster(trafficConfig(o, topts, hist))
	if err != nil {
		return nil, err
	}
	rep := &Report{Seed: o.Seed, Opts: o}
	rl := &runLog{now: c.Sched.Now}
	c.Settle(30 * time.Minute)
	if c.ActiveMaster() == nil {
		return nil, fmt.Errorf("chaos: no active master after boot settle")
	}
	eng := workload.NewTrafficEngine(c, topts, rl.logf)
	if err := eng.Setup(); err != nil {
		return nil, err
	}
	rep.SLO = eng.Run()
	if m := c.ActiveMaster(); m != nil {
		if err := m.ValidateAllocations(); err != nil {
			// Not violatef: a traffic run's violation has no log line.
			rl.Violations = append(rl.Violations, rl.stamp()+" traffic: allocation invariant: "+err.Error())
		}
	}
	rl.logf("traffic run complete: %d violations", len(rl.Violations))
	rep.Log, rep.Violations = rl.Log, rl.Violations
	return rep, nil
}
