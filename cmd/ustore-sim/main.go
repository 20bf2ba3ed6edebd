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
//	ustore-sim -scenario fleet -units 8 -shards 2   # sharded fleet unit-loss demo
//	ustore-sim -scenario fleet -engine-workers 4    # same demo, same bytes, 4 engine workers
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
	"ustore/internal/fleet"
	"ustore/internal/obs"
)

func main() {
	hosts := flag.Int("hosts", 4, "hosts per deploy unit")
	disks := flag.Int("disks", 16, "disks per deploy unit")
	fanIn := flag.Int("fanin", 4, "hub fan-in factor")
	units := flag.Int("units", 1, "fleet scenario: deploy units (raised to the fleet's minimum for -shards)")
	shards := flag.Int("shards", 2, "fleet scenario: metadata shards")
	seed := flag.Int64("seed", 1, "simulation seed")
	scenario := flag.String("scenario", "crash", "scenario: crash | switch | powersave | fleet")
	engWorkers := flag.Int("engine-workers", 0, "fleet scenario: most goroutines executing one engine window (0 = one per CPU; output is byte-identical at any count)")
	stats := flag.Bool("stats", false, "print an end-of-run table of all collected metrics")
	flag.Parse()

	if *scenario == "fleet" {
		// The fleet scenario builds its own sharded control plane instead
		// of a single-master cluster.
		runFleet(*units, *shards, *engWorkers, *seed)
		return
	}

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
	case "powersave":
		runPowersave(c, say)
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
			c.Sched.After(200*time.Millisecond, probe)
		})
	}
	probe()
	c.Settle(30 * time.Second)
	for _, h := range c.Fabric.Hosts() {
		say("  host %s: %d disks attached", h, c.DiskCountOn(h))
	}
}

// runFleet boots the sharded fleet control plane, loads it through a
// client router, kills a whole deploy unit, and narrates the background
// schedulers draining it onto the survivors.
func runFleet(units, shards, engineWorkers int, seed int64) {
	if need := fleet.MinUnits(shards); units < need {
		// Each shard spreads a volume's fragments over the units it owns,
		// one fragment per unit, so every shard needs that many units.
		units = max(need, 8)
		fmt.Printf("(bumping -units to %d so every shard group spans three units)\n", units)
	}
	f := fleet.New(fleet.Config{Units: units, Shards: shards, Seed: seed,
		EngineWorkers: engineWorkers})
	say := func(format string, args ...any) {
		fmt.Printf("[t=%8s] %s\n", f.Sched.Now().Truncate(time.Millisecond), fmt.Sprintf(format, args...))
	}
	say("booting fleet: %d units (%d disks, %d racks), %d metadata shards",
		units, f.Topo.NumDisks, f.Topo.Racks, shards)
	f.Settle(30 * time.Second)
	for k := 0; k < shards; k++ {
		m := f.Leader(k)
		if m == nil {
			fmt.Fprintf(os.Stderr, "shard %d has no leader after boot\n", k)
			os.Exit(1)
		}
		say("  shard %d leader elected: %s", k, m.Name())
	}

	r := f.NewRouter("demo")
	const nVols = 8
	var firstDisks []string
	for i := 0; i < nVols; i++ {
		vol := fmt.Sprintf("vol-%02d", i)
		r.Allocate(vol, 1<<30, "archive", func(disks []string, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "allocate %s: %v\n", vol, err)
				os.Exit(1)
			}
			if firstDisks == nil {
				firstDisks = disks
			}
		})
		f.Settle(5 * time.Second)
	}
	say("allocated %d volumes, 3 fragments each, spread across units", nVols)
	say("  vol-00 fragments: %s", strings.Join(firstDisks, " "))

	const victim = "u000"
	say("killing unit %s: machine isolated, its shard replicas crash", victim)
	killAt := f.Sched.Now()
	f.KillUnit(victim)
	drained := false
	for waited := time.Duration(0); waited < 30*time.Minute; waited += 30 * time.Second {
		f.Settle(30 * time.Second)
		if f.Drained(victim) {
			drained = true
			break
		}
	}
	if !drained {
		fmt.Fprintf(os.Stderr, "unit %s not drained within 30m\n", victim)
		os.Exit(1)
	}
	say("unit %s drained in %s: schedulers re-replicated every fragment onto survivors",
		victim, (f.Sched.Now() - killAt).Truncate(time.Second))

	r2 := f.NewRouter("verify")
	var after []string
	r2.Lookup("vol-00", func(disks []string, _ int64, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "lookup vol-00: %v\n", err)
			os.Exit(1)
		}
		after = disks
	})
	f.Settle(10 * time.Second)
	say("  vol-00 fragments now: %s", strings.Join(after, " "))

	for _, err := range []error{f.ValidateSpread(), f.ValidateShardMap(), f.ValidateCapacity()} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "invariant violated: %v\n", err)
			os.Exit(1)
		}
	}
	say("invariants held: fragment spread, shard-map consistency, capacity ledger")
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

// runPowersave shows the adaptive spin-down policy at work.
func runPowersave(c *ustore.Cluster, say func(string, ...any)) {
	say("note: run with cfg.SpinDownIdle via examples/powersave for the full demo")
	spun := 0
	for _, d := range c.Disks {
		d.SpinDown()
		spun++
	}
	c.Settle(time.Second)
	say("spun down %d idle disks; unit power drops to the Table V powered-off regime", spun)
}
