// Command ustore-sim boots a full simulated UStore deployment and runs a
// scripted scenario against it, narrating what happens on the virtual
// timeline: allocation, IO, a host crash, failure detection, fabric
// reconfiguration, re-enumeration, and transparent client remounts.
//
// Usage:
//
//	ustore-sim                     # default scenario (host crash)
//	ustore-sim -hosts 4 -disks 16  # cluster shape
//	ustore-sim -scenario switch    # deliberate disk-group switch
//	ustore-sim -seed 7             # different deterministic run
//	ustore-sim -stats              # end-of-run metrics table
//
// The sharded fleet's narrated unit loss is
// `ustore-chaos -fleet -units 8 -shards 2 -unit-loss -log`.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ustore"
	"ustore/internal/core"
	"ustore/internal/fabric"
	"ustore/internal/obs"
)

func main() {
	hosts := flag.Int("hosts", 4, "hosts per deploy unit")
	disks := flag.Int("disks", 16, "disks per deploy unit")
	fanIn := flag.Int("fanin", 4, "hub fan-in factor")
	seed := flag.Int64("seed", 1, "simulation seed")
	scenario := flag.String("scenario", "crash", "scenario: crash | switch")
	stats := flag.Bool("stats", false, "print an end-of-run table of all collected metrics")
	flag.Parse()

	cfg := ustore.DefaultConfig()
	var rec *obs.Recorder
	if *stats {
		rec = obs.NewRecorder()
		cfg.Recorder = rec
	}
	cfg.Seed = *seed
	cfg.Fabric.Disks = *disks
	cfg.Fabric.FanIn = *fanIn
	cfg.Fabric.Hosts = nil
	for i := 1; i <= *hosts; i++ {
		cfg.Fabric.Hosts = append(cfg.Fabric.Hosts, fmt.Sprintf("h%d", i))
	}

	c, err := ustore.NewCluster(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "building cluster:", err)
		os.Exit(1)
	}
	say := func(format string, args ...any) {
		fmt.Printf("[t=%8s] %s\n", c.Sched.Now().Truncate(time.Millisecond), fmt.Sprintf(format, args...))
	}
	say("booting: 1 unit(s) x (%d hosts, %d disks), fan-in %d, 3 master replicas",
		*hosts, *disks, *fanIn)
	c.Settle(ustore.BootTime)
	m := c.ActiveMaster()
	if m == nil {
		fmt.Fprintln(os.Stderr, "no active master after boot")
		os.Exit(1)
	}
	say("active master: %s", m.Name())
	for _, h := range c.Fabric.Hosts() {
		say("  [unit0] host %s: %d disks attached", h, c.DiskCountOn(h))
	}

	switch *scenario {
	case "crash":
		runCrash(c, say)
	case "switch":
		runSwitch(c, say)
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(2)
	}

	if *stats {
		printStats(rec)
	}
}

// printStats renders every collected metric series as an aligned table,
// sorted by component then name then labels (the snapshot order).
func printStats(rec *obs.Recorder) {
	snap := rec.Registry().Snapshot()
	sort.SliceStable(snap.Metrics, func(i, j int) bool {
		a, b := snap.Metrics[i], snap.Metrics[j]
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		return a.Name < b.Name
	})
	fmt.Println("\n=== end-of-run metrics ===")
	rows := [][2]string{}
	for _, s := range snap.Metrics {
		name := s.Name
		if len(s.Labels) > 0 {
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var parts []string
			for _, k := range keys {
				parts = append(parts, k+"="+s.Labels[k])
			}
			name += "{" + strings.Join(parts, ",") + "}"
		}
		var val string
		if s.Type == "histogram" {
			val = fmt.Sprintf("count=%d sum=%.6gs", s.Count, s.Sum)
		} else {
			val = fmt.Sprintf("%g", s.Value)
		}
		rows = append(rows, [2]string{name, val})
	}
	width := 0
	for _, r := range rows {
		if len(r[0]) > width {
			width = len(r[0])
		}
	}
	for _, r := range rows {
		fmt.Printf("  %-*s  %s\n", width, r[0], r[1])
	}
}

// runCrash allocates and mounts a space, kills its host, and narrates the
// automatic failover.
func runCrash(c *ustore.Cluster, say func(string, ...any)) {
	cl := c.Client("demo-client", "demo-svc")
	var rep ustore.AllocateReply
	cl.Allocate(1<<30, func(r ustore.AllocateReply, err error) {
		if err != nil {
			say("allocate failed: %v", err)
			return
		}
		rep = r
	})
	c.Settle(2 * time.Second)
	say("allocated %s on %s (host %s)", rep.Space, rep.DiskID, rep.Host)
	cl.OnMount = func(ev ustore.MountEvent) {
		if ev.Remounted {
			say("client transparently remounted %s on %s", ev.Space, ev.Host)
		} else {
			say("client mounted %s on %s", ev.Space, ev.Host)
		}
	}
	cl.Mount(rep.Space, func(err error) {
		if err != nil {
			say("mount failed: %v", err)
		}
	})
	c.Settle(2 * time.Second)

	m := c.ActiveMaster()
	m.OnHostDead = func(h string) { say("MASTER: host %s declared dead", h) }
	m.OnFailoverDone = func(h string, took time.Duration) {
		say("MASTER: disks of %s re-homed and re-exported in %s", h, took.Truncate(10*time.Millisecond))
	}
	victim := rep.Host
	say("crashing host %s", victim)
	crashAt := c.Sched.Now()
	c.CrashHost(victim)

	recovered := false
	var probe func()
	probe = func() {
		cl.Read(rep.Space, 0, 4096, func(_ []byte, err error) {
			if err == nil && cl.MountedOn(rep.Space) != victim {
				if !recovered {
					recovered = true
					say("client IO restored after %s (paper: 5.8s)",
						(c.Sched.Now() - crashAt).Truncate(10*time.Millisecond))
				}
				return
			}
			c.Sched.FireAfter(200*time.Millisecond, probe)
		})
	}
	probe()
	c.Settle(30 * time.Second)
	for _, h := range c.Fabric.Hosts() {
		say("  host %s: %d disks attached", h, c.DiskCountOn(h))
	}
}

// runSwitch performs a deliberate topology command on a whole co-moving
// group.
func runSwitch(c *ustore.Cluster, say func(string, ...any)) {
	m := c.ActiveMaster()
	groups := c.Fabric.CoMovingGroups()
	group := groups[0]
	src := m.DiskHost(string(group[0]))
	var dst string
	for _, h := range c.Fabric.Hosts() {
		if h != src {
			dst = h
			break
		}
	}
	say("commanding: move group %v from %s to %s", group, src, dst)
	cmd := core.ExecuteArgs{Force: true}
	for _, d := range group {
		cmd.Pairs = append(cmd.Pairs, fabric.DiskHost{Disk: d, Host: dst})
	}
	start := c.Sched.Now()
	m.ExecuteTopology(cmd, func(err error) {
		if err != nil {
			say("controller error: %v", err)
			return
		}
		say("controller verified the move in %s", (c.Sched.Now() - start).Truncate(10*time.Millisecond))
	})
	c.Settle(20 * time.Second)
	for _, h := range c.Fabric.Hosts() {
		say("  host %s: %d disks attached", h, c.DiskCountOn(h))
	}
}
