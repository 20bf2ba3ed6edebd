package workload

import (
	"math"
	"testing"
	"time"

	"ustore/internal/disk"
	"ustore/internal/fabric"
	"ustore/internal/simtime"
	"ustore/internal/usb"
)

func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

func TestSpecString(t *testing.T) {
	cases := map[string]Spec{
		"4K-SR": {Size: 4 << 10, ReadPct: 100, Pattern: disk.Sequential},
		"4K-SM": {Size: 4 << 10, ReadPct: 50, Pattern: disk.Sequential},
		"4M-RW": {Size: 4 << 20, ReadPct: 0, Pattern: disk.Random},
		"4M-SR": {Size: 4 << 20, ReadPct: 100, Pattern: disk.Sequential},
	}
	for want, spec := range cases {
		if got := spec.String(); got != want {
			t.Errorf("String(%+v) = %q, want %q", spec, got, want)
		}
	}
}

func TestPaperWorkloadsCoverTableII(t *testing.T) {
	ws := PaperWorkloads()
	if len(ws) != 12 {
		t.Fatalf("got %d workloads, want 12", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		seen[w.String()] = true
	}
	if len(seen) != 12 {
		t.Fatalf("duplicates in paper workloads: %v", seen)
	}
}

// TestTableIIClosedLoop reproduces every Table II cell with the closed-loop
// runner and checks it against the paper's measurement within tolerance.
// The table has 36 cells (12 workloads x 3 interconnects), one row each in
// bench.TableII.
func TestTableIIClosedLoop(t *testing.T) {
	// Paper Table II, in PaperWorkloads order per interconnect.
	paper := map[disk.Interconnect][12]float64{
		// 4KB IO/s: seq 100/50/0, rand 100/50/0; then 4MB MB/s likewise.
		disk.AttachSATA:   {13378, 8066, 11211, 191.9, 105.4, 86.9, 184.8, 105.7, 180.2, 129.1, 78.7, 57.5},
		disk.AttachUSB:    {5380, 4294, 6166, 189.0, 105.2, 85.2, 185.8, 119.7, 184.0, 147.9, 95.5, 79.3},
		disk.AttachFabric: {5381, 4595, 6181, 189.2, 106.0, 87.9, 185.8, 118.6, 184.9, 147.7, 97.7, 79.9},
	}
	// Tolerances: the service-time model reproduces pure read/write
	// columns tightly; mixed columns and 4MB random (where the paper's own
	// three interconnects disagree by up to 40%) get more slack.
	tolerances := [12]float64{0.10, 0.12, 0.10, 0.10, 0.15, 0.10, 0.05, 0.25, 0.05, 0.30, 0.30, 0.45}
	measured := 0
	for ic, cells := range paper {
		for i, spec := range PaperWorkloads() {
			s := simtime.NewScheduler(int64(i))
			d := disk.New(s, "d0", disk.DT01ACA300(), ic)
			d.SpinUp()
			s.Run()
			res := RunClosedLoop(s, []*disk.Disk{d}, spec, 20*time.Second)
			var got float64
			if spec.Size == 4<<10 {
				got = res.TotalIOPS()
			} else {
				got = res.TotalMBps()
			}
			if !within(got, cells[i], tolerances[i]) {
				t.Errorf("%v %s: model %.1f, paper %.1f (tol %.0f%%)",
					ic, spec, got, cells[i], tolerances[i]*100)
			}
			measured++
		}
	}
	if measured != 36 {
		t.Fatalf("measured %d Table II cells, want 36", measured)
	}
}

func TestStandaloneRateConsistentWithClosedLoop(t *testing.T) {
	p := disk.DT01ACA300()
	for _, spec := range PaperWorkloads() {
		r, w := spec.StandaloneRate(p, disk.AttachFabric)
		analytic := (r + w) / 1e6
		s := simtime.NewScheduler(9)
		d := disk.New(s, "d0", p, disk.AttachFabric)
		d.SpinUp()
		s.Run()
		res := RunClosedLoop(s, []*disk.Disk{d}, spec, 10*time.Second)
		if !within(res.TotalMBps(), analytic, 0.05) {
			t.Errorf("%s: closed loop %.2f MB/s vs analytic %.2f", spec, res.TotalMBps(), analytic)
		}
	}
}

func newFlowRig(t *testing.T) (*fabric.Fabric, *usb.FlowSim) {
	t.Helper()
	f, err := fabric.Prototype()
	if err != nil {
		t.Fatal(err)
	}
	s := simtime.NewScheduler(1)
	fs := usb.NewFlowSim(
		func() time.Duration { return s.Now() },
		func(d time.Duration, fn func()) func() { ev := s.After(d, fn); return ev.Cancel })
	FabricResources(fs, f)
	return f, fs
}

// firstNDisksOnOneHost returns n disks currently attached to the same host,
// moving groups there as needed (mirrors the paper's single-host scaling).
func disksOnHost(t *testing.T, f *fabric.Fabric, host string, n int) []fabric.NodeID {
	t.Helper()
	var out []fabric.NodeID
	for g := 0; len(out) < n; g++ {
		var pairs []fabric.DiskHost
		for i := 0; i < 4; i++ {
			pairs = append(pairs, fabric.DiskHost{Disk: fabric.DiskID(g*4 + i), Host: host})
		}
		turns, err := f.ForcedTurns(pairs)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range turns {
			if err := f.SetSwitch(st.Switch, st.Sel); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4 && len(out) < n; i++ {
			out = append(out, fabric.DiskID(g*4+i))
		}
	}
	return out
}

func TestFigure5LargeSequentialSaturatesAtTwoDisks(t *testing.T) {
	f, fs := newFlowRig(t)
	p := disk.DT01ACA300()
	spec := Spec{Size: 4 << 20, ReadPct: 100, Pattern: disk.Sequential}
	host := f.Hosts()[0]
	var totals []float64
	for _, n := range []int{1, 2, 4} {
		disks := disksOnHost(t, f, host, n)
		res, err := RunFluid(fs, f, p, disks, spec)
		if err != nil {
			t.Fatal(err)
		}
		totals = append(totals, res.TotalMBps())
	}
	if !within(totals[0], 185, 0.05) {
		t.Errorf("1 disk = %.1f MB/s, want ~185", totals[0])
	}
	// 2 disks fill the ~300 MB/s root port; 4 disks add nothing.
	if !within(totals[1], 300, 0.03) {
		t.Errorf("2 disks = %.1f MB/s, want ~300 (root saturation)", totals[1])
	}
	if !within(totals[2], 300, 0.03) {
		t.Errorf("4 disks = %.1f MB/s, want flat at ~300", totals[2])
	}
}

func TestFigure5SmallSequentialSaturatesAtEightDisks(t *testing.T) {
	f, fs := newFlowRig(t)
	p := disk.DT01ACA300()
	spec := Spec{Size: 4 << 10, ReadPct: 100, Pattern: disk.Sequential}
	host := f.Hosts()[0]
	var totals []float64
	for _, n := range []int{1, 2, 4, 8, 12} {
		disks := disksOnHost(t, f, host, n)
		res, err := RunFluid(fs, f, p, disks, spec)
		if err != nil {
			t.Fatal(err)
		}
		totals = append(totals, res.TotalMBps())
	}
	// Scales linearly up to ~8 disks, then the root command rate caps it.
	for i := 1; i < 3; i++ {
		n := float64(int(1) << i)
		if !within(totals[i], totals[0]*n, 0.05) {
			t.Errorf("%.0f disks = %.1f, want linear scaling from %.1f", n, totals[i], totals[0])
		}
	}
	if totals[4] > totals[3]*1.05 {
		t.Errorf("12 disks (%.1f) kept scaling past 8 (%.1f)", totals[4], totals[3])
	}
}

func TestFigure5RandomScalesLinearlyTo12(t *testing.T) {
	f, fs := newFlowRig(t)
	p := disk.DT01ACA300()
	spec := Spec{Size: 4 << 10, ReadPct: 100, Pattern: disk.Random}
	host := f.Hosts()[0]
	d1, err := RunFluid(fs, f, p, disksOnHost(t, f, host, 1), spec)
	if err != nil {
		t.Fatal(err)
	}
	d12, err := RunFluid(fs, f, p, disksOnHost(t, f, host, 12), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !within(d12.TotalMBps(), 12*d1.TotalMBps(), 0.02) {
		t.Errorf("random 4K: 12 disks = %.2f, want 12x single (%.2f)", d12.TotalMBps(), d1.TotalMBps())
	}
}

func TestDuplexHeadline(t *testing.T) {
	// Half the disks reading + half writing 4MB streams reach ~540 MB/s
	// per port and ~2160 MB/s across the deploy unit's four hosts
	// (§VII-A, the paper's duplex methodology).
	f, fs := newFlowRig(t)
	p := disk.DT01ACA300()
	res, err := RunFluidSplit(fs, f, p, f.Disks(), 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !within(res.TotalMBps(), 2160, 0.03) {
		t.Errorf("unit duplex total = %.0f MB/s, paper ~2160", res.TotalMBps())
	}
	perPort := res.TotalMBps() / 4
	if !within(perPort, 540, 0.03) {
		t.Errorf("per-port duplex = %.0f MB/s, paper ~540", perPort)
	}
	// Directions are balanced.
	if !within(res.ReadBps, res.WriteBps, 0.05) {
		t.Errorf("unbalanced duplex: read %.0f vs write %.0f MB/s", res.ReadBps/1e6, res.WriteBps/1e6)
	}
	// All flows stopped afterwards: a leaked flow would make the rerun's
	// StartFlow panic on a duplicate ID.
	again, err := RunFluidSplit(fs, f, p, f.Disks(), 4<<20)
	if err != nil || again.ReadBps != res.ReadBps || again.WriteBps != res.WriteBps {
		t.Fatalf("rerun on the same FlowSim = %+v, %v; want %+v", again, err, res)
	}
}

func TestFluidFairShareAcrossDisks(t *testing.T) {
	f, fs := newFlowRig(t)
	p := disk.DT01ACA300()
	spec := Spec{Size: 4 << 20, ReadPct: 100, Pattern: disk.Sequential}
	host := f.Hosts()[0]
	disks := disksOnHost(t, f, host, 4)
	res, err := RunFluid(fs, f, p, disks, spec)
	if err != nil {
		t.Fatal(err)
	}
	// "the bandwidth is shared evenly among the disks" (§VII-A).
	var first float64
	for _, d := range disks {
		r := res.PerDisk[d]
		if first == 0 {
			first = r
			continue
		}
		if !within(r, first, 0.01) {
			t.Fatalf("uneven share: %v", res.PerDisk)
		}
	}
}

func TestRunFluidBrokenPath(t *testing.T) {
	f, fs := newFlowRig(t)
	p := disk.DT01ACA300()
	if err := f.Fail(fabric.DiskID(0)); err != nil {
		t.Fatal(err)
	}
	_, err := RunFluid(fs, f, p, []fabric.NodeID{fabric.DiskID(0)},
		Spec{Size: 4 << 20, ReadPct: 100, Pattern: disk.Sequential})
	if err == nil {
		t.Fatal("fluid run over broken path succeeded")
	}
}

func TestAvgServiceTimeAsymmetricMix(t *testing.T) {
	// A 75%-read mix must sit between the pure-read and 50% mixed rates.
	p := disk.DT01ACA300()
	mk := func(pct int) time.Duration {
		return Spec{Size: 4 << 10, ReadPct: pct, Pattern: disk.Sequential}.AvgServiceTime(p, disk.AttachSATA)
	}
	pure, threeQ, half := mk(100), mk(75), mk(50)
	if !(pure < threeQ && threeQ < half) {
		t.Fatalf("mix ordering violated: 100%%=%v 75%%=%v 50%%=%v", pure, threeQ, half)
	}
}

func TestIOPSMatchesAvgServiceTime(t *testing.T) {
	p := disk.DT01ACA300()
	for _, spec := range PaperWorkloads() {
		// The operation rate StandaloneRate implies is one op per
		// AvgServiceTime.
		r, w := spec.StandaloneRate(p, disk.AttachUSB)
		iops := (r + w) / float64(spec.Size)
		want := 1 / spec.AvgServiceTime(p, disk.AttachUSB).Seconds()
		if !within(iops, want, 1e-9) {
			t.Fatalf("%s: IOPS %.2f != 1/svc %.2f", spec, iops, want)
		}
	}
}
