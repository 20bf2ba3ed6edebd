package bench

import (
	"fmt"
	"time"

	"ustore/internal/core"
	"ustore/internal/fabric"
	"ustore/internal/hdfs"
	"ustore/internal/obs"
	"ustore/internal/runner"
)

// SwitchParts decomposes one switching experiment like Figure 6:
//
//	Part1: disk rejected from the old host -> recognized by the new
//	       host's USB driver (detach event to last enumeration).
//	Part2: recognized -> exposed onto the network (last enumeration to
//	       last export on the receiving EndPoint).
//	Part3: exposed -> remotely mounted by the ClientLib (last export to
//	       last successful remount).
type SwitchParts struct {
	Disks int
	Part1 time.Duration
	Part2 time.Duration
	Part3 time.Duration
}

// Total returns the end-to-end switching time.
func (p SwitchParts) Total() time.Duration { return p.Part1 + p.Part2 + p.Part3 }

// fig6Cluster builds a full-trees cluster (per-disk switching, matching
// Figure 6's x-axis of 1..12 individual disks) with one space allocated
// and mounted on each of the 16 disks, so 12 are movable to any one host.
func fig6Cluster(seed int64, rec *obs.Recorder) (*core.Cluster, []core.SpaceID, []*core.ClientLib, error) {
	cfg := core.DefaultConfig()
	cfg.FullTrees = true
	cfg.Seed = seed
	cfg.Recorder = rec
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	c.Settle(10 * time.Second)
	if c.ActiveMaster() == nil {
		return nil, nil, nil, fmt.Errorf("no active master")
	}
	var spaces []core.SpaceID
	var clients []*core.ClientLib
	for i := 0; i < 16; i++ {
		cl := c.Client(fmt.Sprintf("client%02d", i), fmt.Sprintf("svc%02d", i))
		var space core.SpaceID
		var fail error
		cl.Allocate(1<<30, func(rep core.AllocateReply, err error) {
			space, fail = rep.Space, err
		})
		c.Settle(2 * time.Second)
		if fail != nil {
			return nil, nil, nil, fail
		}
		cl.Mount(space, func(err error) { fail = err })
		c.Settle(2 * time.Second)
		if fail != nil {
			return nil, nil, nil, fail
		}
		spaces = append(spaces, space)
		clients = append(clients, cl)
	}
	return c, spaces, clients, nil
}

// MeasureSwitch switches n disks simultaneously to one destination host
// and returns the three-part delay decomposition. rec (optional, nil OK)
// receives the run's metrics and trace, including the measurement's
// milestone events.
func MeasureSwitch(n int, seed int64, rec *obs.Recorder) (SwitchParts, error) {
	c, spaces, clients, err := fig6Cluster(seed, rec)
	if err != nil {
		return SwitchParts{}, err
	}
	m := c.ActiveMaster()

	// Pick n mounted spaces whose disks do not already live on the
	// destination host.
	dst := c.Fabric.Hosts()[3]
	type target struct {
		space core.SpaceID
		disk  string
		cl    *core.ClientLib
	}
	var targets []target
	for i, sp := range spaces {
		diskID := diskOf(sp)
		if m.DiskHost(diskID) != dst {
			targets = append(targets, target{space: sp, disk: diskID, cl: clients[i]})
		}
		if len(targets) == n {
			break
		}
	}
	if len(targets) < n {
		return SwitchParts{}, fmt.Errorf("only %d movable disks", len(targets))
	}

	enums := newMilestones(rec, c.Sched.Now, "switch-enumerated")
	exports := newMilestones(rec, c.Sched.Now, "switch-exported")
	mounts := newMilestones(rec, c.Sched.Now, "switch-mounted")
	c.Binding.OnStorageEnumerated = func(host string, d fabric.NodeID) {
		if ep := c.EndPoints[host]; ep != nil {
			ep.DiskEnumerated(string(d))
		}
		for _, tg := range targets {
			if tg.disk == string(d) && host == dst {
				enums.hit(tg.disk)
			}
		}
	}
	cmd := core.ExecuteArgs{Force: true}
	for _, tg := range targets {
		cmd.Pairs = append(cmd.Pairs, fabric.DiskHost{Disk: fabric.NodeID(tg.disk), Host: dst})
	}
	start := c.Sched.Now()
	span := rec.Begin("bench", "measure-switch", "bench", obs.L("disks", fmt.Sprint(n)))
	var execErr error
	m.ExecuteTopology(cmd, func(err error) { execErr = err })

	// Poll for export and remount completion.
	ep := c.EndPoints[dst]
	tick := c.Sched.Every(50*time.Millisecond, func() {
		for _, tg := range targets {
			if ep.HasExport(tg.space) {
				exports.hit(string(tg.space))
			}
			if exports.has(string(tg.space)) && tg.cl.MountedOn(tg.space) == dst {
				mounts.hit(string(tg.space))
			}
		}
	})
	// Drive each client to remount by issuing reads (the paper's client
	// remounts on the first failed access). A read issued before the
	// switch flips still completes at the old host, so probe repeatedly
	// until the mount lands on the destination.
	var probe func(tg target)
	probe = func(tg target) {
		if mounts.has(string(tg.space)) {
			return
		}
		tg.cl.Read(tg.space, 0, 4096, func([]byte, error) {
			if !mounts.has(string(tg.space)) {
				c.Sched.FireAfter(200*time.Millisecond, func() { probe(tg) })
			}
		})
	}
	for _, tg := range targets {
		probe(tg)
	}
	c.Settle(60 * time.Second)
	tick.Stop()
	span.End()
	if execErr != nil {
		return SwitchParts{}, fmt.Errorf("execute: %w", execErr)
	}
	if enums.count() != n || exports.count() != n || mounts.count() != n {
		return SwitchParts{}, fmt.Errorf("incomplete: enum=%d export=%d mount=%d of %d",
			enums.count(), exports.count(), mounts.count(), n)
	}
	return SwitchParts{
		Disks: n,
		Part1: enums.last() - start,
		Part2: exports.last() - enums.last(),
		Part3: mounts.last() - exports.last(),
	}, nil
}

// diskOf extracts the disk ID from a space ID "unit0/diskNN/spM".
func diskOf(space core.SpaceID) string {
	s := string(space)
	first, second := -1, -1
	for i, ch := range s {
		if ch == '/' {
			if first < 0 {
				first = i
			} else {
				second = i
				break
			}
		}
	}
	if first < 0 || second < 0 {
		return ""
	}
	return s[first+1 : second]
}

// Figure6 regenerates the switching-time decomposition for 1..12 disks,
// measuring the five disk counts on up to parallel workers (each point is
// its own deterministic cluster, so rows are byte-identical whatever the
// worker count). rec follows the same rule as Failover: it only receives
// metrics and traces when parallel <= 1.
func Figure6(rec *obs.Recorder, parallel int) *Table {
	t := &Table{
		ID:     "fig6",
		Title:  "Switching time vs disks switched (Figure 6)",
		Header: []string{"Disks", "Part1 reject->recognized", "Part2 ->exposed", "Part3 ->mounted", "Total"},
		Notes: []string{
			"paper: part1 grows with disk count (serialized enumeration); parts 2 and 3 stay flat",
		},
	}
	pointRec := rec
	if parallel > 1 {
		pointRec = nil
	}
	points := []int{1, 2, 4, 8, 12}
	t.Rows = runner.Map(len(points), parallel, func(i int) []string {
		n := points[i]
		parts, err := MeasureSwitch(n, int64(n), pointRec)
		if err != nil {
			return []string{fmt.Sprint(n), "err: " + err.Error(), "", "", ""}
		}
		return []string{
			fmt.Sprint(n),
			parts.Part1.Truncate(time.Millisecond).String(),
			parts.Part2.Truncate(time.Millisecond).String(),
			parts.Part3.Truncate(time.Millisecond).String(),
			parts.Total().Truncate(time.Millisecond).String(),
		}
	})
	return t
}

// MeasureFailover kills one host and reports the client-perceived recovery
// time: crash until every space previously served by that host is readable
// again. rec (optional, nil OK) receives the run's metrics and trace.
func MeasureFailover(seed int64, rec *obs.Recorder) (time.Duration, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Recorder = rec
	c, err := core.NewCluster(cfg)
	if err != nil {
		return 0, err
	}
	c.Settle(10 * time.Second)
	m := c.ActiveMaster()
	if m == nil {
		return 0, fmt.Errorf("no active master")
	}
	// One mounted space per host-local service on the victim host.
	victim := c.Fabric.Hosts()[2]
	var spaces []core.SpaceID
	var clients []*core.ClientLib
	for i := 0; i < 4; i++ {
		cl := c.Client(fmt.Sprintf("%s-c%d", victim, i), fmt.Sprintf("fsvc%d", i))
		var space core.SpaceID
		var fail error
		cl.Allocate(1<<30, func(rep core.AllocateReply, err error) { space, fail = rep.Space, err })
		c.Settle(2 * time.Second)
		if fail != nil {
			return 0, fail
		}
		if m.DiskHost(diskOf(space)) != victim {
			continue // allocation landed elsewhere; skip
		}
		cl.Mount(space, func(err error) { fail = err })
		c.Settle(2 * time.Second)
		if fail != nil {
			return 0, fail
		}
		spaces = append(spaces, space)
		clients = append(clients, cl)
	}
	if len(spaces) == 0 {
		return 0, fmt.Errorf("no spaces on victim host")
	}

	crashAt := c.Sched.Now()
	span := rec.Begin("bench", "measure-failover", "bench", obs.L("victim", victim))
	c.CrashHost(victim)
	recovered := newMilestones(rec, c.Sched.Now, "failover-recovered")
	for i, sp := range spaces {
		sp := sp
		clients[i].Read(sp, 0, 4096, func(_ []byte, err error) {
			if err == nil {
				recovered.hit(string(sp))
			}
		})
	}
	c.Settle(40 * time.Second)
	span.End()
	if recovered.count() != len(spaces) {
		return 0, fmt.Errorf("recovered %d of %d spaces", recovered.count(), len(spaces))
	}
	return recovered.last() - crashAt, nil
}

// DefaultTrials is the failover trial count when the caller passes <= 0.
const DefaultTrials = 3

// Failover regenerates the 5.8-second single-host-failure headline across
// trials independent runs (seeds 1..trials; <= 0 means DefaultTrials) on up
// to parallel workers. Each trial builds its own cluster, so the rows are
// byte-identical whatever the worker count.
//
// rec (optional) collects metrics and traces, but only when the trials run
// sequentially (parallel <= 1): one recorder cannot serve concurrent
// clusters — each run rebinds the recorder's clock to its own scheduler.
func Failover(rec *obs.Recorder, trials, parallel int) *Table {
	if trials <= 0 {
		trials = DefaultTrials
	}
	trialRec := rec
	if parallel > 1 {
		trialRec = nil
	}
	t := &Table{
		ID:     "failover",
		Title:  "Single host failure recovery (§VII headline)",
		Header: []string{"Trial", "recovery (crash -> all IO restored)"},
		Notes:  []string{"paper: 5.8 s"},
	}
	t.Rows = runner.Map(trials, parallel, func(i int) []string {
		trial := i + 1
		took, err := MeasureFailover(int64(trial), trialRec)
		if err != nil {
			return []string{fmt.Sprint(trial), "err: " + err.Error()}
		}
		return []string{fmt.Sprint(trial), took.Truncate(10 * time.Millisecond).String()}
	})
	return t
}

// HDFSSwitch regenerates the §VII-B observation: an HDFS write across a
// disk switch stalls for seconds and resumes; reads are uninterrupted.
// rec (optional) collects the run's metrics and traces.
func HDFSSwitch(rec *obs.Recorder) *Table {
	t := &Table{
		ID:     "hdfs",
		Title:  "HDFS over UStore across a disk switch (§VII-B)",
		Header: []string{"Metric", "value"},
		Notes:  []string{"paper: client errors for several seconds, then resumes; reads uninterrupted"},
	}
	cfg := core.DefaultConfig()
	cfg.Recorder = rec
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Notes = append(t.Notes, "error: "+err.Error())
		return t
	}
	c.Settle(10 * time.Second)
	nn := hdfs.NewNameNode(c.Net, "h1")
	_ = nn
	var dns []*hdfs.DataNode
	var dnClients []*core.ClientLib
	for _, host := range []string{"h2", "h3", "h4"} {
		cl := c.Client(host+"-dn", "hdfs-"+host)
		dn := hdfs.NewDataNode(c.Net, host, "h1", cl)
		var startErr error
		dn.Start(64<<30, func(err error) { startErr = err })
		c.Settle(5 * time.Second)
		if startErr != nil {
			t.Notes = append(t.Notes, "datanode error: "+startErr.Error())
			return t
		}
		dns = append(dns, dn)
		dnClients = append(dnClients, cl)
	}
	cli := hdfs.NewClient(c.Net, "cli", "h1")
	data := make([]byte, 16*hdfs.BlockSize)
	for i := range data {
		data[i] = byte(i * 13)
	}
	writeStart := c.Sched.Now()
	var writeErr error
	var writeTook time.Duration
	done := false
	cli.WriteFile("/exp", data, func(err error) {
		writeErr = err
		writeTook = c.Sched.Now() - writeStart
		done = true
	})
	c.Settle(500 * time.Millisecond)

	// Switch the first datanode's backing disk group mid-write.
	space := dns[0].Space()
	var look core.LookupReply
	dnClients[0].Lookup(space, func(rep core.LookupReply, err error) { look = rep })
	c.Settle(1 * time.Second)
	var dst string
	for _, h := range c.Fabric.Hosts() {
		if h != look.Host {
			dst = h
			break
		}
	}
	cmd := core.ExecuteArgs{Force: true}
	for _, g := range c.Fabric.CoMovingGroups() {
		has := false
		for _, d := range g {
			if string(d) == look.DiskID {
				has = true
			}
		}
		if has {
			for _, d := range g {
				cmd.Pairs = append(cmd.Pairs, fabric.DiskHost{Disk: d, Host: dst})
			}
		}
	}
	c.ActiveMaster().ExecuteTopology(cmd, func(error) {})
	c.Settle(120 * time.Second)

	remounts := uint64(0)
	for _, cl := range dnClients {
		remounts += cl.Remounts
	}
	var readErr error
	readOK := false
	cli.ReadFile("/exp", func(b []byte, err error) {
		readErr = err
		readOK = err == nil && len(b) == len(data)
	})
	c.Settle(60 * time.Second)

	status := "ok"
	if !done || writeErr != nil {
		status = fmt.Sprintf("failed: %v", writeErr)
	}
	t.Rows = append(t.Rows,
		[]string{"write outcome", status},
		[]string{"write duration (16 x 4MB blocks)", writeTook.Truncate(10 * time.Millisecond).String()},
		[]string{"client-visible stalls", fmt.Sprint(cli.WriteStalls)},
		[]string{"datanode transparent remounts", fmt.Sprint(remounts)},
		[]string{"read-back intact", fmt.Sprintf("%v (err=%v)", readOK, readErr)},
	)
	return t
}
