package bench

import (
	"time"

	"ustore/internal/cost"
	"ustore/internal/disk"
	"ustore/internal/fabric"
	"ustore/internal/power"
	"ustore/internal/simtime"
	"ustore/internal/usb"
	"ustore/internal/workload"
)

// TableI regenerates the §VI cost comparison.
func TableI() *Table {
	t := &Table{
		ID:     "table1",
		Title:  "CapEx of 10PB raw storage (Table I)",
		Header: []string{"System", "Media", "CapEx", "AttEx"},
		Notes: []string{
			"paper: UStore $456k/$115k; 24% cheaper CapEx and 55% cheaper AttEx than BACKBLAZE",
		},
	}
	for _, rep := range cost.TableI() {
		att := rep.AttEx.String()
		if rep.Solution == "Sun StorageTek SL150" {
			att = "-"
		}
		t.Rows = append(t.Rows, []string{rep.Solution, rep.Media, rep.CapEx.String(), att})
	}
	return t
}

// paperTableII holds the paper's measured values for side-by-side output,
// in workload.PaperWorkloads order.
var paperTableII = map[disk.Interconnect][12]float64{
	disk.AttachSATA:   {13378, 8066, 11211, 191.9, 105.4, 86.9, 184.8, 105.7, 180.2, 129.1, 78.7, 57.5},
	disk.AttachUSB:    {5380, 4294, 6166, 189.0, 105.2, 85.2, 185.8, 119.7, 184.0, 147.9, 95.5, 79.3},
	disk.AttachFabric: {5381, 4595, 6181, 189.2, 106.0, 87.9, 185.8, 118.6, 184.9, 147.7, 97.7, 79.9},
}

// TableIICell measures one Table II cell with the closed-loop runner:
// 4KB workloads report IO/s, 4MB workloads MB/s.
func TableIICell(ic disk.Interconnect, spec workload.Spec) float64 {
	s := simtime.NewScheduler(1)
	d := disk.New(s, "d0", disk.DT01ACA300(), ic)
	d.SpinUp()
	s.Run()
	res := workload.RunClosedLoop(s, []*disk.Disk{d}, spec, 20*time.Second)
	if spec.Size <= 256<<10 {
		return res.TotalIOPS()
	}
	return res.TotalMBps()
}

// TableII regenerates the single-disk performance table (measured vs
// paper for every interconnect and workload).
func TableII() *Table { return tableII(TableIICell) }

// tableII lays out Table II with cell measuring each (interconnect,
// workload) pair.
func tableII(cell func(disk.Interconnect, workload.Spec) float64) *Table {
	t := &Table{
		ID:     "table2",
		Title:  "One-disk performance, 3 connection types (Table II)",
		Header: []string{"Workload", "Conn", "measured", "paper"},
		Notes: []string{
			"4KB rows in IO/s, 4MB rows in MB/s; closed-loop Iometer-style worker, QD=1",
		},
	}
	for i, spec := range workload.PaperWorkloads() {
		for _, ic := range []disk.Interconnect{disk.AttachSATA, disk.AttachUSB, disk.AttachFabric} {
			got := cell(ic, spec)
			t.Rows = append(t.Rows, []string{
				spec.String(), ic.String(), Cell(got), Cell(paperTableII[ic][i]),
			})
		}
	}
	return t
}

// newFlowRig builds a prototype fabric plus a flow simulator.
func newFlowRig() (*fabric.Fabric, *usb.FlowSim, error) {
	f, err := fabric.Prototype()
	if err != nil {
		return nil, nil, err
	}
	s := simtime.NewScheduler(1)
	fs := usb.NewFlowSim(
		func() time.Duration { return s.Now() },
		func(d time.Duration, fn func()) func() { ev := s.After(d, fn); return ev.Cancel })
	workload.FabricResources(fs, f)
	return f, fs, nil
}

// gatherDisksOnHost moves leaf-hub groups until n disks sit on host.
func gatherDisksOnHost(f *fabric.Fabric, host string, n int) ([]fabric.NodeID, error) {
	var out []fabric.NodeID
	for g := 0; len(out) < n; g++ {
		var pairs []fabric.DiskHost
		for i := 0; i < 4; i++ {
			pairs = append(pairs, fabric.DiskHost{Disk: fabric.DiskID(g*4 + i), Host: host})
		}
		turns, err := f.ForcedTurns(pairs)
		if err != nil {
			return nil, err
		}
		for _, st := range turns {
			if err := f.SetSwitch(st.Switch, st.Sel); err != nil {
				return nil, err
			}
		}
		for i := 0; i < 4 && len(out) < n; i++ {
			out = append(out, fabric.DiskID(g*4+i))
		}
	}
	return out, nil
}

// Figure5Point computes one Figure 5 series point: aggregate MB/s of n
// disks on one host running spec.
func Figure5Point(spec workload.Spec, n int) (float64, error) {
	f, fs, err := newFlowRig()
	if err != nil {
		return 0, err
	}
	host := f.Hosts()[0]
	disks, err := gatherDisksOnHost(f, host, n)
	if err != nil {
		return 0, err
	}
	res, err := workload.RunFluid(fs, f, disk.DT01ACA300(), disks, spec)
	if err != nil {
		return 0, err
	}
	return res.TotalMBps(), nil
}

// Figure5 regenerates the multi-disk scaling figure: aggregate throughput
// for 1/2/4/8/12 disks on one host across the paper's workload series.
func Figure5() *Table {
	t := &Table{
		ID:     "fig5",
		Title:  "Aggregate throughput vs number of disks on one host (Figure 5)",
		Header: []string{"Workload", "1", "2", "4", "8", "12"},
		Notes: []string{
			"MB/s; paper: 4K-SR saturates ~8 disks (root cmd rate), 4M series saturates ~2 disks at ~300MB/s, 4K-RR scales linearly",
		},
	}
	series := []workload.Spec{
		{Size: 4 << 10, ReadPct: 100, Pattern: disk.Sequential},
		{Size: 4 << 10, ReadPct: 0, Pattern: disk.Sequential},
		{Size: 4 << 10, ReadPct: 100, Pattern: disk.Random},
		{Size: 4 << 20, ReadPct: 100, Pattern: disk.Sequential},
		{Size: 4 << 20, ReadPct: 0, Pattern: disk.Sequential},
		{Size: 4 << 20, ReadPct: 100, Pattern: disk.Random},
	}
	counts := []int{1, 2, 4, 8, 12}
	for _, spec := range series {
		row := []string{spec.String()}
		for _, n := range counts {
			v, err := Figure5Point(spec, n)
			if err != nil {
				row = append(row, "err")
				continue
			}
			row = append(row, Cell(v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// DuplexHeadline reproduces the §VII-A duplex result: ~540 MB/s per port,
// ~2160 MB/s for the whole 4-host unit under 4MB half-read/half-write.
func DuplexHeadline() *Table {
	t := &Table{
		ID:     "duplex",
		Title:  "Duplex aggregate throughput (§VII-A headline)",
		Header: []string{"Scope", "measured MB/s", "paper MB/s"},
	}
	f, fs, err := newFlowRig()
	if err != nil {
		t.Notes = append(t.Notes, "error: "+err.Error())
		return t
	}
	// The paper's methodology: half the disks are pure readers, the other
	// half pure writers, so both directions of every port fill.
	res, err := workload.RunFluidSplit(fs, f, disk.DT01ACA300(), f.Disks(), 4<<20)
	if err != nil {
		t.Notes = append(t.Notes, "error: "+err.Error())
		return t
	}
	t.Rows = append(t.Rows,
		[]string{"per port (half read, half write)", Cell(res.TotalMBps() / 4), "540"},
		[]string{"deploy unit (4 ports)", Cell(res.TotalMBps()), "2160"},
	)
	return t
}

// TableIII regenerates the one-disk power table.
func TableIII() *Table {
	p := disk.DT01ACA300()
	specDown, specIdle, specActive := disk.SpecSheet()
	t := &Table{
		ID:     "table3",
		Title:  "Power of one disk (Table III, watts)",
		Header: []string{"Mode", "Spin Down", "Idle", "Read/Write"},
	}
	t.Rows = append(t.Rows,
		[]string{"Specs", Cell(specDown), Cell(specIdle), Cell(specActive)},
		[]string{"SATA", Cell(p.Power(disk.StateSpunDown)), Cell(p.Power(disk.StateIdle)), Cell(p.Power(disk.StateActive))},
		[]string{"USB bridge",
			Cell(power.DiskWithBridgeWatts(p, disk.StateSpunDown)),
			Cell(power.DiskWithBridgeWatts(p, disk.StateIdle)),
			Cell(power.DiskWithBridgeWatts(p, disk.StateActive))},
	)
	t.Notes = append(t.Notes, "paper: SATA 0.05/4.71/6.66, USB bridge 1.56/5.76/7.56")
	return t
}

// TableIV regenerates the hub power curve.
func TableIV() *Table {
	t := &Table{
		ID:     "table4",
		Title:  "Hub power vs connected disks (Table IV, watts)",
		Header: []string{"Disk Count", "0", "1", "2", "3", "4"},
	}
	row := []string{"Power"}
	for n := 0; n <= 4; n++ {
		row = append(row, Cell(power.HubWatts(n)))
	}
	t.Rows = append(t.Rows, row)
	t.Notes = append(t.Notes, "paper: 0.21 1.06 1.23 1.47 1.67")
	return t
}

// TableV regenerates the solution power comparison at 16 disks.
func TableV() *Table {
	t := &Table{
		ID:     "table5",
		Title:  "Solution power at 16 disks (Table V, watts)",
		Header: []string{"State", "DD860/ES30", "Pergamum", "UStore"},
		Notes:  []string{"paper: spinning 222.5/193.5/166.8, powered off 83.5/28.9/22.1"},
	}
	p := disk.DT01ACA300()
	f, err := fabric.Prototype()
	if err != nil {
		t.Notes = append(t.Notes, "error: "+err.Error())
		return t
	}
	mk := func(st disk.State) map[fabric.NodeID]disk.State {
		m := make(map[fabric.NodeID]disk.State)
		for _, d := range f.Disks() {
			m[d] = st
		}
		return m
	}
	uSpin := power.UnitPower(f, p, mk(disk.StateActive), 6, 1).WallW
	uOff := power.UnitPower(f, p, mk(disk.StatePoweredOff), 6, 1).WallW
	t.Rows = append(t.Rows,
		[]string{"Spinning", Cell(power.DD860Watts(16, true)), Cell(power.PergamumWatts(p, 16, true)), Cell(uSpin)},
		[]string{"Powered off", Cell(power.DD860Watts(16, false)), Cell(power.PergamumWatts(p, 16, false)), Cell(uOff)},
	)
	return t
}
