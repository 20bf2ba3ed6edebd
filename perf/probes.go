package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ustore/internal/bench"
	"ustore/internal/block"
	"ustore/internal/campaign"
	"ustore/internal/chaos"
	"ustore/internal/coord"
	"ustore/internal/disk"
	"ustore/internal/ec"
	"ustore/internal/fleet"
	"ustore/internal/model"
	"ustore/internal/obs"
	"ustore/internal/paxos"
	"ustore/internal/placement"
	"ustore/internal/policy"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
	"ustore/internal/spec"
	"ustore/internal/usb"
	"ustore/internal/workload"
)

// Layer probes: small fixed workloads against one layer's public API each,
// so every layer the workloads cross has a host cost per operation even
// where the repo has no Benchmark* for it (paxos, coord, simnet, block,
// fleet.Router, campaign). One schema: a probe writes its
// "<layer>.probe_*" values into the map; timings are the median of
// probeRounds rounds of a fixed operation count, sized to take well under
// a second each.

const probeRounds = 3

type probe struct {
	layer string
	run   func(out map[string]float64) error
}

var probes = []probe{
	{"simtime", probeSimtime},
	{"simnet", probeSimnet},
	{"paxos", probePaxos},
	{"coord", probeCoord},
	{"fleet", probeFleet},
	{"placement", probePlacement},
	{"block", probeBlock},
	{"disk", probeDisk},
	{"usb", probeUSB},
	{"ec", probeEC},
	{"obs", probeObs},
	{"policy", probePolicy},
	{"workload", probeWorkload},
	{"model", probeModel},
	{"chaos", probeChaos},
	{"spec", probeSpecCampaign},
	{"bench", probeFidelity},
}

// runProbes runs every probe under its own span.
func runProbes(tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range probes {
		sp := tr.begin(p.layer, "probe:"+p.layer)
		err := p.run(out)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.layer, err)
		}
	}
	return out, nil
}

// nsPerOp is the median over probeRounds rounds of round()'s host time
// divided by the n operations a round performs.
func nsPerOp(n int, round func()) float64 {
	xs := make([]float64, probeRounds)
	for i := range xs {
		t0 := time.Now()
		round()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(xs)
}

// allocsOf reports what fn allocates: objects and bytes.
func allocsOf(fn func()) (mallocs, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
}

// inSeries issues n operations one after another — operation i+1 starts
// when operation i reports done — and calls advance (run the simulation a
// step) until all have finished.
func inSeries(n int, issue func(i int, done func(error)), advance func()) error {
	finished := 0
	var failed error
	var next func()
	next = func() {
		issue(finished, func(err error) {
			if err != nil {
				failed = err
				return
			}
			if finished++; finished < n {
				next()
			}
		})
	}
	next()
	for step := 0; finished < n && failed == nil && step < 1000; step++ {
		advance()
	}
	if failed == nil && finished != n {
		failed = fmt.Errorf("%d of %d operations finished", finished, n)
	}
	return failed
}

// --- simtime ---

func probeSimtime(out map[string]float64) error {
	// One-shot short timers that re-arm themselves: simnet's delivery
	// pattern (BenchmarkSchedulerShortTimers, a fifth of its length).
	const fires = 200_000
	out["simtime.probe_fire_ns"] = nsPerOp(fires, func() {
		s := simtime.NewScheduler(1)
		n := 0
		var spawn func()
		spawn = func() {
			if n++; n >= fires {
				return
			}
			s.FireAfter(time.Duration(200+s.Rand().Intn(800))*time.Microsecond, spawn)
		}
		for j := 0; j < 32; j++ {
			s.After(time.Duration(j)*time.Microsecond, spawn)
		}
		s.Run()
	})
	// Periodic load: 64 tickers at 500ms over 20 simulated minutes.
	const tickers, tickEvery, tickFor = 64, 500 * time.Millisecond, 20 * time.Minute
	out["simtime.probe_ticker_ns"] = nsPerOp(tickers*int(tickFor/tickEvery), func() {
		s := simtime.NewScheduler(1)
		for t := 0; t < tickers; t++ {
			s.Every(tickEvery, func() {})
		}
		s.RunUntil(tickFor)
	})
	// Cross-partition posts through the engine's inboxes and window
	// barrier: 8 partitions, 2 workers, each event posts to the next
	// partition one lookahead ahead.
	const parts, posts, lookahead = 8, 100_000, time.Millisecond
	out["simtime.probe_engine_post_ns"] = nsPerOp(posts, func() {
		e := simtime.NewEngine(1, parts, 2, lookahead)
		left := make([]int, parts)
		hop := make([]func(), parts)
		for p := 0; p < parts; p++ {
			p := p
			left[p] = posts / parts
			hop[p] = func() {
				if left[p]--; left[p] < 0 {
					return
				}
				dst := (p + 1) % parts
				e.Post(p, dst, e.Part(p).Now()+lookahead, hop[dst])
			}
			e.Part(p).After(0, hop[p])
		}
		e.RunUntil(time.Duration(posts/parts+2) * lookahead * 2)
	})
	return nil
}

// --- simnet ---

// echoCalls issues n sequential echo RPCs from a to node "b".
func echoCalls(n int, a *simnet.RPCNode, advance func()) error {
	return inSeries(n, func(i int, done func(error)) {
		a.Call("b", "echo", i, 64, time.Second, func(_ any, err error) { done(err) })
	}, advance)
}

func echo(_ string, args any) (any, error) { return args, nil }

func probeSimnet(out map[string]float64) error {
	const calls = 30_000
	var err error
	out["simnet.probe_rpc_ns"] = nsPerOp(calls, func() {
		s := simtime.NewScheduler(1)
		net := simnet.New(s)
		a := simnet.NewRPCNode(net, "a")
		simnet.NewRPCNode(net, "b").Register("echo", echo)
		err = errors.Join(err, echoCalls(calls, a, func() { s.Run() }))
	})
	const crossCalls = 10_000
	out["simnet.probe_fabric_rpc_ns"] = nsPerOp(crossCalls, func() {
		e := simtime.NewEngine(1, 2, 2, time.Millisecond)
		fab := simnet.NewFabric(e)
		a := simnet.NewRPCNode(fab.Network(0), "a")
		simnet.NewRPCNode(fab.Network(1), "b").Register("echo", echo)
		err = errors.Join(err, echoCalls(crossCalls, a, func() { e.RunFor(time.Second) }))
	})
	return err
}

// --- paxos / coord ---

var quorum = []string{"p0", "p1", "p2"}

func probePaxos(out map[string]float64) error {
	const commits = 5_000
	s := simtime.NewScheduler(1)
	net := simnet.New(s)
	nodes := make([]*paxos.Node, len(quorum))
	for i, name := range quorum {
		nodes[i] = paxos.New(net, name, quorum, paxos.DefaultConfig(), func(int, paxos.Command) {})
	}
	s.RunFor(5 * time.Second)
	var leader *paxos.Node
	for _, n := range nodes {
		if n.IsLeader() {
			leader = n
		}
	}
	if leader == nil {
		return errors.New("no paxos leader after 5 simulated seconds")
	}
	id := 0
	var simPerCommit, msgsPerCommit float64
	var err error
	out["paxos.probe_commit_ns"] = nsPerOp(commits, func() {
		sent0, now0, endAt := net.Stats().Sent, s.Now(), s.Now()
		err = errors.Join(err, inSeries(commits, func(_ int, done func(error)) {
			id++
			leader.Propose(paxos.Command{ID: fmt.Sprintf("c%d", id), Data: id}, func(int) {
				endAt = s.Now()
				done(nil)
			})
		}, func() { s.RunFor(100 * time.Millisecond) }))
		simPerCommit = simMS(endAt-now0) / commits
		msgsPerCommit = float64(net.Stats().Sent-sent0) / commits
	})
	// The simulated figures are deterministic; the last round's stand.
	out["paxos.probe_commit_sim_ms"] = simPerCommit
	out["paxos.probe_msgs_per_commit"] = msgsPerCommit
	return err
}

func probeCoord(out map[string]float64) error {
	const creates = 3_000
	s := simtime.NewScheduler(1)
	net := simnet.New(s)
	stores := make([]*coord.Store, len(quorum))
	for i, name := range quorum {
		stores[i] = coord.NewStore(net, name, quorum, paxos.DefaultConfig())
	}
	s.RunFor(5 * time.Second)
	var leader *coord.Store
	for _, st := range stores {
		if st.IsLeader() {
			leader = st
		}
	}
	if leader == nil {
		return errors.New("no coord leader after 5 simulated seconds")
	}
	id := 0
	var err error
	round := func() {
		err = errors.Join(err, inSeries(creates, func(_ int, done func(error)) {
			id++
			leader.Create(fmt.Sprintf("/n%d", id), []byte("v"), "", done)
		}, func() { s.RunFor(100 * time.Millisecond) }))
	}
	out["coord.probe_create_ns"] = nsPerOp(creates, round)
	mallocs, _ := allocsOf(round)
	out["coord.probe_create_allocs"] = mallocs / creates
	return err
}

// --- fleet.Router ---

func probeFleet(out map[string]float64) error {
	const ops = 1_000
	f := fleet.New(fleet.Config{Units: 8, Shards: 2, Seed: 1, EngineWorkers: defaultEngine})
	for elapsed := time.Duration(0); f.LeaderlessShard() >= 0; elapsed += bootStep {
		if elapsed >= bootTimeout {
			return errors.New("probe fleet leaderless after boot settle")
		}
		f.Settle(bootStep)
	}
	r := f.NewRouter("probe")
	var err error
	// Each round works on the next ops volumes.
	chain := func(issue func(i int, done func(error))) func() {
		base := 0
		return func() {
			first := base
			base += ops
			err = errors.Join(err, inSeries(ops, func(i int, done func(error)) { issue(first+i, done) },
				func() { f.Settle(100 * time.Millisecond) }))
		}
	}
	out["fleet.probe_alloc_ns"] = nsPerOp(ops, chain(func(i int, done func(error)) {
		r.Allocate(fmt.Sprintf("p-%d", i), fleetVolSize, "probe", func(_ []string, e error) { done(e) })
	}))
	// Lookups walk the volumes the allocation rounds just placed.
	out["fleet.probe_lookup_ns"] = nsPerOp(ops, chain(func(i int, done func(error)) {
		r.Lookup(fmt.Sprintf("p-%d", i), func(_ []string, _ int64, e error) { done(e) })
	}))
	return err
}

// --- placement ---

func probePlacement(out map[string]float64) error {
	// 4096 disks: 4 racks x 16 units x 4 hosts x 16 disks, 4 per hub.
	views := make([]placement.DiskView, 0, 4096)
	for i := 0; i < 4096; i++ {
		unit := i / 64
		views = append(views, placement.DiskView{
			ID: fmt.Sprintf("d%04d", i), Free: int64(1+i%7) << 30, Spinning: i%2 == 0,
			Loc: placement.Location{
				Rack: fmt.Sprintf("r%d", unit%4), Unit: fmt.Sprintf("u%02d", unit),
				Hub: fmt.Sprintf("hub%d", (i%64)/4), Host: fmt.Sprintf("h%d", (i%64)/16),
			},
		})
	}
	placement.SortViews(views)
	const spreads = 200
	picked := 0
	round := func() {
		for i := 0; i < spreads; i++ {
			picked = len(placement.Spread(views, 3, placement.SpreadOptions{Level: placement.LevelUnit}).Disks)
		}
	}
	out["placement.probe_spread_ns"] = nsPerOp(spreads, round)
	mallocs, _ := allocsOf(round)
	out["placement.probe_spread_allocs"] = mallocs / spreads
	if picked != 3 {
		return fmt.Errorf("Spread placed %d of 3 fragments", picked)
	}
	return nil
}

// --- block ---

func probeBlock(out map[string]float64) error {
	// Codec: a 64KB write PDU encoded and decoded.
	const pduKB, pdus = 64, 2_000
	msg := &block.Msg{Type: block.MsgWrite, Tag: 7, Volume: "vol0", Offset: 4096, Data: make([]byte, pduKB<<10)}
	var err error
	codec := func() {
		for i := 0; i < pdus; i++ {
			m, _, e := block.Decode(msg.Encode())
			if e != nil || len(m.Data) != len(msg.Data) {
				err = fmt.Errorf("PDU round trip: %v", e)
			}
		}
	}
	out["block.probe_codec_ns_per_kb"] = nsPerOp(pdus*pduKB, codec)
	_, bytes := allocsOf(codec)
	out["block.probe_alloc_b_per_kb"] = bytes / (pdus * pduKB)

	// Checksummed volume: write then read back 64KB extents; host cost
	// covers the CRC refresh on write and the verify on read.
	const ioKB, ios = 64, 500
	s := simtime.NewScheduler(1)
	d := disk.New(s, "d0", disk.DT01ACA300(), disk.AttachSATA)
	d.SpinUp()
	s.Run()
	vol, verr := block.NewChecksumDiskVolume(d, 0, int64(ios*ioKB)<<10)
	if verr != nil {
		return verr
	}
	buf := make([]byte, ioKB<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	out["block.probe_crc_rw_ns_per_kb"] = nsPerOp(2*ios*ioKB, func() {
		for i := 0; i < ios; i++ {
			off := int64(i*ioKB) << 10
			vol.WriteAt(off, buf, func(e error) {
				if e != nil {
					err = e
					return
				}
				vol.ReadAt(off, len(buf), func(_ []byte, e error) {
					if e != nil {
						err = e
					}
				})
			})
		}
		s.Run()
	})
	return err
}

// --- disk ---

func probeDisk(out map[string]float64) error {
	var err error
	submitChain := func(size, n int) func() {
		return func() {
			s := simtime.NewScheduler(1)
			d := disk.New(s, "d0", disk.DT01ACA300(), disk.AttachSATA)
			d.SpinUp()
			s.Run()
			err = errors.Join(err, inSeries(n, func(i int, done func(error)) {
				d.Submit(&disk.Request{
					Op:     disk.Op{Read: true, Size: size, Pattern: disk.Sequential},
					Offset: int64(i) * int64(size),
					Done:   func(_ []byte, e error) { done(e) },
				})
			}, func() { s.Run() }))
		}
	}
	const small, large = 100_000, 100
	out["disk.probe_submit_4k_ns"] = nsPerOp(small, submitChain(4<<10, small))
	out["disk.probe_submit_4m_ns"] = nsPerOp(large, submitChain(4<<20, large))
	_, bytes := allocsOf(submitChain(4<<20, large))
	out["disk.probe_alloc_b_per_io_4m"] = bytes / large
	return err
}

// --- usb ---

func probeUSB(out map[string]float64) error {
	// Max-min fair rebalancing: 16 finite flows of different lengths over
	// a shared root port, four hub uplinks and a command-rate resource;
	// every completion re-runs the water-filling.
	const flows, rounds = 16, 200
	finished := 0
	out["usb.probe_fluid_ns"] = nsPerOp(flows*rounds, func() {
		for r := 0; r < rounds; r++ {
			s := simtime.NewScheduler(1)
			fs := usb.NewFlowSim(
				func() time.Duration { return s.Now() },
				func(d time.Duration, fn func()) func() { return s.After(d, fn).Cancel })
			fs.SetResource("root", 300e6)
			fs.SetResource("cmd", 45e3)
			for h := 0; h < 4; h++ {
				fs.SetResource(fmt.Sprintf("hub%d", h), 200e6)
			}
			for i := 0; i < flows; i++ {
				fs.StartFlow(&usb.Flow{
					ID: fmt.Sprintf("f%d", i), Demand: 180e6,
					UnitsPerByte: map[string]float64{
						"root": 1, fmt.Sprintf("hub%d", i%4): 1, "cmd": 1.0 / (64 << 10),
					},
				}, float64(i+1)*32e6, func() { finished++ })
			}
			s.Run()
		}
	})
	if want := flows * rounds * probeRounds; finished != want {
		return fmt.Errorf("%d of %d flows finished", finished, want)
	}
	return nil
}

// --- ec ---

func probeEC(out map[string]float64) error {
	const k, m, shardLen, rounds = 10, 4, 256 << 10, 4
	code, err := ec.New(k, m)
	if err != nil {
		return err
	}
	data := make([]byte, k*shardLen)
	for i := range data {
		data[i] = byte(i * 31)
	}
	shards := code.Split(data)
	var parity [][]byte
	encNS := nsPerOp(rounds, func() {
		for i := 0; i < rounds; i++ {
			if parity, err = code.Encode(shards); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	recNS := nsPerOp(rounds, func() {
		for i := 0; i < rounds; i++ {
			all := append(append([][]byte{}, shards...), parity...)
			all[0], all[3], all[k] = nil, nil, nil // two data shards and one parity lost
			if err = code.Reconstruct(all); err != nil {
				return
			}
		}
	})
	mb := float64(len(data)) / 1e6
	out["ec.probe_encode_mb_per_s"] = mb / (encNS / 1e9)
	out["ec.probe_reconstruct_mb_per_s"] = mb / (recNS / 1e9)
	return err
}

// --- obs ---

func probeObs(out map[string]float64) error {
	const n = 2_000_000
	rec := obs.NewRecorder()
	c := rec.Counter("probe", "ops_total")
	h := rec.Histogram("probe", "op_seconds")
	out["obs.probe_counter_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	})
	out["obs.probe_histogram_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			h.Observe(float64(i&1023) * 1e-4)
		}
	})
	// The engine-mode fold: 65 partition recorders of 40 series each.
	parts := make([]*obs.Recorder, 65)
	for p := range parts {
		parts[p] = obs.NewRecorderCap(64)
		for s := 0; s < 20; s++ {
			shard := obs.L("shard", fmt.Sprint(s%8))
			parts[p].Counter("probe", fmt.Sprintf("c%d_total", s), shard).Add(uint64(p + s))
			parts[p].Histogram("probe", fmt.Sprintf("h%d_seconds", s), shard).Observe(float64(s) * 1e-3)
		}
		parts[p].Instant("probe", "mark", "t")
	}
	out["obs.probe_merge_ms"] = nsPerOp(1, func() {
		obs.MergeRecorders(obs.NewRecorderCap(64*len(parts)), parts...)
	}) / 1e6
	return nil
}

// --- policy ---

func probePolicy(out map[string]float64) error {
	classes := workload.DefaultTrafficOptions(1).ProtectionConfig().Classes
	const n = 200_000
	granted, shed := 0, 0
	out["policy.probe_admit_ns"] = nsPerOp(n, func() {
		a := policy.NewAdmission(classes, 1)
		for d := 0; d < 6; d++ {
			a.SetReady(0, fmt.Sprintf("disk%d", d), true)
		}
		for i := 0; i < n; i++ {
			now := time.Duration(i) * time.Millisecond
			res := fmt.Sprintf("disk%d", i%6)
			a.Submit(now, classes[i%len(classes)].Name, res,
				func() { granted++; a.Release(now, res) },
				func(policy.ShedReason) { shed++ })
		}
	})
	if granted == 0 || granted+shed != n*probeRounds {
		return fmt.Errorf("admission probe: %d granted + %d shed of %d", granted, shed, n*probeRounds)
	}
	const takes = 2_000_000
	out["policy.probe_bucket_ns"] = nsPerOp(takes, func() {
		tb := &policy.TokenBucket{Rate: 1000, Burst: 50}
		for i := 0; i < takes; i++ {
			tb.Allow(time.Duration(i) * 500 * time.Microsecond)
		}
	})
	return nil
}

// --- workload ---

func probeWorkload(out map[string]float64) error {
	const n = 1_000_000
	q := workload.NewP2Quantile(0.99)
	out["workload.probe_p2_observe_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			q.Observe(float64((i*7919)%10007) * 1e3)
		}
	})
	if q.Count() != n*probeRounds {
		return fmt.Errorf("P2 estimator saw %d of %d samples", q.Count(), n*probeRounds)
	}
	// Rendering the 16-row SLO table (four classes x four phases).
	rep := &workload.SLOReport{Seed: 1, Storm: true, Protected: true, TotalDisks: 6}
	for _, cs := range workload.DefaultTrafficOptions(1).Classes {
		for _, ph := range workload.Phases {
			rep.Rows = append(rep.Rows, workload.ClassSLO{
				Class: cs.Name, Phase: ph, Total: 1000, OK: 990, Shed: 10,
				P50: 20 * time.Millisecond, P99: 80 * time.Millisecond, P999: 120 * time.Millisecond, Max: time.Second,
			})
		}
	}
	const renders = 1_000
	text := ""
	out["workload.probe_slo_report_ms"] = nsPerOp(renders, func() {
		for i := 0; i < renders; i++ {
			text = rep.Text()
		}
	}) / 1e6
	if text == "" {
		return errors.New("empty SLO report")
	}
	return nil
}

// --- model ---

func probeModel(out map[string]float64) error {
	// A clean history: 600 spaces, each allocated, exported, looked up and
	// mounted by overlapping clients, revoked and released.
	var ops []model.Op
	add := func(k model.Kind, space string, inv, ret int, host string) {
		ops = append(ops, model.Op{
			ID: len(ops), Kind: k, Client: "c", Space: space, Disk: "d0", Host: host,
			Offset: 0, Size: 1 << 20, Invoke: time.Duration(inv) * time.Millisecond,
			Return: time.Duration(ret) * time.Millisecond, Done: true,
		})
	}
	for sp := 0; sp < 600; sp++ {
		name, t := fmt.Sprintf("s%d", sp), sp*100
		add(model.OpAllocate, name, t, t+2, "")
		add(model.OpExport, name, t+3, t+3, "h1")
		for l := 0; l < 6; l++ {
			add(model.OpLookup, name, t+4+l, t+8+l, "")
		}
		add(model.OpMount, name, t+5, t+12, "h1")
		add(model.OpRevoke, name, t+20, t+20, "h1")
		add(model.OpRelease, name, t+21, t+23, "")
	}
	var res model.Result
	out["model.probe_check_ns_per_op"] = nsPerOp(len(ops), func() { res = model.Check(ops) })
	if len(res.Violations) > 0 || res.BudgetExceeded > 0 || res.Ops != len(ops) {
		return fmt.Errorf("model check of a clean history: %d violations, %d over budget, %d of %d ops",
			len(res.Violations), res.BudgetExceeded, res.Ops, len(ops))
	}
	return nil
}

// --- chaos ---

func probeChaos(out map[string]float64) error {
	// What a chaos run costs before any fault: boot, initial write pass,
	// drain, final audit and model check around one simulated minute.
	o := chaos.DefaultOptions(1, time.Minute)
	o.HostCrashes, o.DiskFaults, o.HubFaults, o.NetFaults, o.Corruptions = false, false, false, false, false
	var err error
	out["chaos.fixed_cost_s"] = nsPerOp(1, func() {
		rep, e := chaos.Run(o)
		if e == nil && len(rep.Violations) > 0 {
			e = fmt.Errorf("violations in a fault-free run: %v", rep.Violations)
		}
		err = errors.Join(err, e)
	}) / 1e9
	return err
}

// --- spec / campaign ---

func probeSpecCampaign(out map[string]float64) error {
	paths, err := filepath.Glob("examples/*.yaml")
	if err != nil || len(paths) == 0 {
		return fmt.Errorf("no examples/*.yaml under the working directory (run from the repository root): %v", err)
	}
	sort.Strings(paths)
	var files []*spec.File
	cells := 0
	out["spec.probe_parse_hash_ms"] = nsPerOp(1, func() {
		files, cells = files[:0], 0
		for _, p := range paths {
			data, e := os.ReadFile(p)
			if e != nil {
				err = e
				return
			}
			f, e := spec.Parse(data, p)
			if e != nil {
				err = e
				return
			}
			cs, e := f.Cells() // hashes every cell
			if e != nil {
				err = e
				return
			}
			files, cells = append(files, f), cells+len(cs)
		}
	}) / 1e6
	if err != nil {
		return err
	}
	if cells == 0 {
		return errors.New("examples expanded to no cells")
	}
	// Cached replay of the durability grid: one run fills a throw-away
	// cache, the timed runs must then replay every cell from it.
	var grid *spec.File
	for _, f := range files {
		if f.Spec.Mode == "durability" {
			grid = f
		}
	}
	if grid == nil {
		return errors.New("no durability-mode spec among examples/*.yaml")
	}
	if err = os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	cache, err := os.MkdirTemp(".bench_build", "campaign-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cache)
	opts := campaign.Options{CacheDir: cache, Workers: 2}
	if _, err = campaign.Run(grid, opts); err != nil {
		return err
	}
	out["campaign.probe_cached_replay_ms"] = nsPerOp(1, func() {
		res, e := campaign.Run(grid, opts)
		if e == nil && res.Miss != 0 {
			e = fmt.Errorf("cached replay executed %d cells", res.Miss)
		}
		err = errors.Join(err, e)
	}) / 1e6
	return err
}

// --- paper fidelity ---

// probeFidelity runs the repo's paper-fidelity suite so every simulated
// number is reported beside the model's error against the paper: the worst
// Table II cell, and how many checks left their band.
func probeFidelity(out map[string]float64) error {
	worst, failures := 0.0, 0
	for _, c := range bench.FidelityChecks() {
		got, err := c.Measure()
		if err != nil {
			return fmt.Errorf("fidelity %s: %w", c.ID, err)
		}
		band := c.Tol * math.Abs(c.Want)
		if c.Want == 0 {
			band = c.Tol
		}
		if math.Abs(got-c.Want) > band {
			failures++
		}
		if len(c.ID) > 6 && c.ID[:6] == "table2" && c.Paper != 0 {
			worst = math.Max(worst, 100*math.Abs(got-c.Paper)/math.Abs(c.Paper))
		}
	}
	out["disk.probe_table2_err_pct"] = worst
	out["bench.fidelity_failures"] = float64(failures)
	return nil
}
