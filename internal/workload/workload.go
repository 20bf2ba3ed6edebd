// Package workload reproduces the paper's Iometer methodology (§VII-A):
// workloads are the cross product of transfer size, read percentage, and
// access pattern, driven by one worker per disk with one outstanding IO.
//
// Two execution modes cover the paper's experiments:
//
//   - Closed-loop per-IO simulation against simulated disks (Table II): each
//     worker submits, waits for completion, submits again. Mixed workloads
//     alternate read/write, paying the disk model's turnaround penalty.
//
//   - Fluid-flow mode over the USB fat-tree's bandwidth model (Figure 5 and
//     the duplex aggregate): each disk contributes a flow whose standalone
//     demand comes from the closed-loop rate, and the tree's max-min fair
//     sharing determines the aggregate.
package workload

import (
	"fmt"
	"time"

	"ustore/internal/disk"
	"ustore/internal/fabric"
	"ustore/internal/simtime"
	"ustore/internal/usb"
)

// Spec names one workload point, e.g. {4KB, 100% read, sequential}.
type Spec struct {
	Size    int
	ReadPct int // 100, 50, or 0
	Pattern disk.Pattern
}

// String renders the paper's workload naming: "4K-SR", "4M-RW", ...
// (size, S/R for sequential/random, R/W/M for read/write/mixed).
func (s Spec) String() string {
	size := fmt.Sprintf("%dB", s.Size)
	switch {
	case s.Size >= 1<<20 && s.Size%(1<<20) == 0:
		size = fmt.Sprintf("%dM", s.Size>>20)
	case s.Size >= 1<<10 && s.Size%(1<<10) == 0:
		size = fmt.Sprintf("%dK", s.Size>>10)
	}
	pat := "S"
	if s.Pattern == disk.Random {
		pat = "R"
	}
	dir := "M"
	switch s.ReadPct {
	case 100:
		dir = "R"
	case 0:
		dir = "W"
	}
	return size + "-" + pat + dir
}

// AvgServiceTime returns the closed-loop per-IO time for the spec at queue
// depth 1: pure streams use their direction's service time; mixed streams
// alternate and pay the turnaround penalty on every op.
func (s Spec) AvgServiceTime(p disk.Params, ic disk.Interconnect) time.Duration {
	read := disk.Op{Read: true, Size: s.Size, Pattern: s.Pattern}
	write := disk.Op{Read: false, Size: s.Size, Pattern: s.Pattern}
	switch s.ReadPct {
	case 100:
		return p.ServiceTime(ic, read)
	case 0:
		return p.ServiceTime(ic, write)
	default:
		read.DirectionSwitch = true
		write.DirectionSwitch = true
		r := p.ServiceTime(ic, read)
		w := p.ServiceTime(ic, write)
		// General mix: fraction f of reads; every boundary between runs
		// pays turnaround. For f=0.5 alternation makes every op a switch.
		f := float64(s.ReadPct) / 100
		return time.Duration(f*float64(r) + (1-f)*float64(w))
	}
}

// StandaloneRate returns a single disk's sustained byte rates (read and
// write components) for the spec, uncontended.
func (s Spec) StandaloneRate(p disk.Params, ic disk.Interconnect) (readBps, writeBps float64) {
	t := s.AvgServiceTime(p, ic).Seconds()
	total := float64(s.Size) / t
	f := float64(s.ReadPct) / 100
	return total * f, total * (1 - f)
}

// PaperWorkloads returns Table II's twelve workload points in table order.
func PaperWorkloads() []Spec {
	var out []Spec
	for _, size := range []int{4 << 10, 4 << 20} {
		for _, pat := range []disk.Pattern{disk.Sequential, disk.Random} {
			for _, pct := range []int{100, 50, 0} {
				out = append(out, Spec{Size: size, ReadPct: pct, Pattern: pat})
			}
		}
	}
	return out
}

// Result aggregates a closed-loop run.
type Result struct {
	Spec     Spec
	Duration time.Duration
	Ops      uint64
	Bytes    uint64
}

// TotalIOPS returns operations per second over the run.
func (r Result) TotalIOPS() float64 { return float64(r.Ops) / r.Duration.Seconds() }

// TotalMBps returns decimal megabytes per second over the run.
func (r Result) TotalMBps() float64 { return float64(r.Bytes) / r.Duration.Seconds() / 1e6 }

// RunClosedLoop drives one worker per disk for the given virtual duration
// and reports the aggregate. Disks must be spinning.
func RunClosedLoop(sched *simtime.Scheduler, disks []*disk.Disk, spec Spec, duration time.Duration) Result {
	res := Result{Spec: spec, Duration: duration}
	deadline := sched.Now() + duration
	for _, d := range disks {
		startWorker(sched, d, spec, deadline, &res)
	}
	sched.RunUntil(deadline)
	return res
}

func startWorker(sched *simtime.Scheduler, d *disk.Disk, spec Spec, deadline simtime.Time, res *Result) {
	rng := sched.Rand()
	var offset int64
	nextRead := true
	var submit func()
	submit = func() {
		if sched.Now() >= deadline {
			return
		}
		read := true
		switch spec.ReadPct {
		case 100:
		case 0:
			read = false
		default:
			read = nextRead
			nextRead = !nextRead
		}
		var off int64
		if spec.Pattern == disk.Sequential {
			off = offset
			offset += int64(spec.Size)
			if offset+int64(spec.Size) > d.Capacity() {
				offset = 0
			}
		} else {
			maxSlot := (d.Capacity() - int64(spec.Size)) / int64(spec.Size)
			off = rng.Int63n(maxSlot) * int64(spec.Size)
		}
		req := &disk.Request{
			Op:     disk.Op{Read: read, Size: spec.Size, Pattern: spec.Pattern},
			Offset: off,
			Done: func(_ []byte, err error) {
				if err != nil {
					return // powered off mid-run; worker stops
				}
				if sched.Now() <= deadline {
					res.Ops++
					res.Bytes += uint64(spec.Size)
				}
				submit()
			},
		}
		if read {
			req.Dest = disk.Discard // Iometer only times its reads
		} else {
			req.Data = make([]byte, 0) // metadata-only write: store elides
		}
		d.Submit(req)
	}
	submit()
}

// FluidResult reports steady-state rates from the flow model.
type FluidResult struct {
	Spec Spec
	// PerDisk maps disk ID to its total allocated byte rate.
	PerDisk map[fabric.NodeID]float64
	// ReadBps and WriteBps are aggregate direction rates.
	ReadBps, WriteBps float64
}

// TotalMBps returns the aggregate rate in decimal MB/s.
func (r FluidResult) TotalMBps() float64 { return (r.ReadBps + r.WriteBps) / 1e6 }

// FabricResources installs the tree's bandwidth resources for the given
// binding into fs: per-direction root-port capacity and command rate per
// host, and per-direction uplink capacity per hub.
func FabricResources(fs *usb.FlowSim, f *fabric.Fabric) {
	for _, h := range f.Hosts() {
		fs.SetResource("host:"+h+":up", usb.RootPortBytesPerSec)
		fs.SetResource("host:"+h+":down", usb.RootPortBytesPerSec)
		fs.SetResource("host:"+h+":duplex", usb.RootPortDuplexBytesPerSec)
		fs.SetResource("cmd:"+h, usb.RootPortCmdsPerSec)
	}
	for _, hub := range f.Hubs() {
		fs.SetResource("hub:"+string(hub)+":up", usb.LinkBytesPerSec)
		fs.SetResource("hub:"+string(hub)+":down", usb.LinkBytesPerSec)
	}
}

// RunFluid starts one (or for mixed specs, two) flows per disk over the
// current fabric attachment and returns the steady-state max-min rates.
// Flows are open-ended; they are stopped before returning.
func RunFluid(fs *usb.FlowSim, f *fabric.Fabric, p disk.Params, disks []fabric.NodeID, spec Spec) (FluidResult, error) {
	res := FluidResult{Spec: spec, PerDisk: make(map[fabric.NodeID]float64)}
	defer stopPrefixed(fs, disks)
	recs, err := startFlows(fs, f, p, disks, spec)
	if err != nil {
		return res, err
	}
	snapshot(&res, recs)
	return res, nil
}

// flowRec tracks one started flow for later rate snapshotting.
type flowRec struct {
	fl *usb.Flow
	d  fabric.NodeID
	up bool
}

// startFlows installs the spec's flows for the given disks and returns
// their handles without snapshotting rates (max-min rebalances as later
// populations join).
func startFlows(fs *usb.FlowSim, f *fabric.Fabric, p disk.Params, disks []fabric.NodeID, spec Spec) ([]flowRec, error) {
	readDemand, writeDemand := spec.StandaloneRate(p, disk.AttachFabric)
	var recs []flowRec
	for _, d := range disks {
		hubs, host, err := f.DataPath(d)
		if err != nil {
			return recs, fmt.Errorf("disk %s: %w", d, err)
		}
		mk := func(dir string, demand float64) *usb.Flow {
			units := map[string]float64{
				"host:" + host + ":" + dir: 1,
				"host:" + host + ":duplex": 1,
				"cmd:" + host:              1 / float64(spec.Size),
			}
			for _, hub := range hubs {
				units["hub:"+string(hub)+":"+dir] = 1
			}
			fl := &usb.Flow{ID: string(d) + ":" + dir, Demand: demand, UnitsPerByte: units}
			fs.StartFlow(fl, -1, nil)
			return fl
		}
		if readDemand > 0 {
			recs = append(recs, flowRec{fl: mk("up", readDemand), d: d, up: true})
		}
		if writeDemand > 0 {
			recs = append(recs, flowRec{fl: mk("down", writeDemand), d: d, up: false})
		}
	}
	return recs, nil
}

// snapshot folds current flow rates into a result.
func snapshot(res *FluidResult, recs []flowRec) {
	for _, r := range recs {
		res.PerDisk[r.d] += r.fl.Rate()
		if r.up {
			res.ReadBps += r.fl.Rate()
		} else {
			res.WriteBps += r.fl.Rate()
		}
	}
}

// RunFluidSplit reproduces the paper's duplex methodology (§VII-A): half
// the disks run a pure read stream and the other half a pure write stream
// of the given transfer size, so both port directions fill simultaneously.
// Rates are snapshotted only after every flow is installed.
func RunFluidSplit(fs *usb.FlowSim, f *fabric.Fabric, p disk.Params, disks []fabric.NodeID, size int) (FluidResult, error) {
	readers := Spec{Size: size, ReadPct: 100, Pattern: disk.Sequential}
	writers := Spec{Size: size, ReadPct: 0, Pattern: disk.Sequential}
	res := FluidResult{Spec: readers, PerDisk: make(map[fabric.NodeID]float64)}
	defer stopPrefixed(fs, disks)
	var all []flowRec
	for i, spec := range []Spec{readers, writers} {
		var half []fabric.NodeID
		for j, d := range disks {
			if j%2 == i {
				half = append(half, d)
			}
		}
		recs, err := startFlows(fs, f, p, half, spec)
		if err != nil {
			return res, err
		}
		all = append(all, recs...)
	}
	snapshot(&res, all)
	return res, nil
}

// stopPrefixed stops both direction flows for every disk.
func stopPrefixed(fs *usb.FlowSim, disks []fabric.NodeID) {
	for _, d := range disks {
		fs.StopFlow(string(d) + ":up")
		fs.StopFlow(string(d) + ":down")
	}
}
