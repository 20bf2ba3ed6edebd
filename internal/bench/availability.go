package bench

import (
	"fmt"
	"time"

	"ustore/internal/core"
	"ustore/internal/faults"
)

// AblateAvailability runs an accelerated-aging soak: host crashes arrive
// with an exponential MTTF (compressed from the paper's 3.4 months so a
// simulable window sees several failures), crashed hosts reboot after 10
// minutes, and probe clients continuously read mounted spaces. The table
// reports observed availability and compares it with the single-tree
// alternative, where each crash pins the disks down for the whole repair.
func AblateAvailability() *Table {
	t := &Table{
		ID:     "ablate-availability",
		Title:  "Accelerated soak: 8h, host MTTF 2h, repair 10m (probe reads every 2s)",
		Header: []string{"Metric", "value"},
	}
	res, err := runAvailabilitySoak()
	if err != nil {
		t.Notes = append(t.Notes, "error: "+err.Error())
		return t
	}
	singleTreeUnavail := time.Duration(res.crashes) * 10 * time.Minute
	t.Rows = append(t.Rows,
		[]string{"host crashes injected", fmt.Sprint(res.crashes)},
		[]string{"probe failures (of probes)", fmt.Sprintf("%d / %d", res.failed, res.probes)},
		[]string{"UStore availability", fmt.Sprintf("%.4f%%", 100*(1-float64(res.failed)/float64(res.probes)))},
		[]string{"UStore unavailable time (approx)", (time.Duration(res.failed) * 2 * time.Second).String()},
		[]string{"single-tree unavailable time (same crashes)", singleTreeUnavail.String()},
	)
	t.Notes = append(t.Notes,
		"single tree: every crash takes its disks down for the full 10m repair; UStore: one failover per crash")
	return t
}

type soakResult struct {
	crashes int
	probes  int
	failed  int
}

func runAvailabilitySoak() (soakResult, error) {
	var res soakResult
	cfg := core.DefaultConfig()
	cfg.Seed = 77
	c, err := core.NewCluster(cfg)
	if err != nil {
		return res, err
	}
	c.Settle(10 * time.Second)
	if c.ActiveMaster() == nil {
		return res, fmt.Errorf("no active master")
	}

	// One mounted space per host.
	type probeTarget struct {
		space core.SpaceID
		cl    *core.ClientLib
	}
	var targets []probeTarget
	for i, h := range c.Fabric.Hosts() {
		cl := c.Client(fmt.Sprintf("%s-probe%d", h, i), fmt.Sprintf("probe-svc%d", i))
		var rep core.AllocateReply
		var fail error = fmt.Errorf("pending")
		cl.Allocate(1<<30, func(r core.AllocateReply, err error) { rep, fail = r, err })
		c.Settle(3 * time.Second)
		if fail != nil {
			return res, fail
		}
		cl.Mount(rep.Space, func(err error) { fail = err })
		c.Settle(3 * time.Second)
		if fail != nil {
			return res, fail
		}
		targets = append(targets, probeTarget{space: rep.Space, cl: cl})
	}

	// MTTF-driven host crashes with automatic reboot 10 minutes later. The
	// master quorum is off-host, so only EndPoints/Controllers die.
	faults.InjectHostCrashes(c.Sched, c.Fabric.Hosts(), 2*time.Hour, 10*time.Minute,
		func(h string) {
			res.crashes++
			c.CrashHost(h)
		},
		c.RestoreHost)

	// Probes: every 2s, each target does a small read with a 2s budget.
	// A probe that does not complete in time counts as an unavailability
	// sample (the ClientLib's internal retries are the recovery path).
	probeTick := c.Sched.Every(2*time.Second, func() {
		for _, tg := range targets {
			tg := tg
			res.probes++
			answered := false
			tg.cl.Read(tg.space, 0, 4096, func(_ []byte, err error) {
				if err == nil {
					answered = true
				}
			})
			c.Sched.FireAfter(1900*time.Millisecond, func() {
				if !answered {
					res.failed++
				}
			})
		}
	})
	c.Settle(8 * time.Hour)
	probeTick.Stop()
	return res, nil
}
