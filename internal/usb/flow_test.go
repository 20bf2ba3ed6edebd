package usb

import (
	"math"
	"testing"
	"time"

	"ustore/internal/simtime"
)

func newFS(t *testing.T) (*simtime.Scheduler, *FlowSim) {
	t.Helper()
	s := simtime.NewScheduler(1)
	fs := NewFlowSim(
		func() time.Duration { return s.Now() },
		func(d time.Duration, fn func()) func() {
			ev := s.After(d, fn)
			return ev.Cancel
		})
	return s, fs
}

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

func TestSingleFlowRunsAtDemand(t *testing.T) {
	s, fs := newFS(t)
	fs.SetResource("root/up", RootPortBytesPerSec)
	done := false
	fs.StartFlow(&Flow{ID: "f1", Demand: 185e6, UnitsPerByte: map[string]float64{"root/up": 1}}, 185e6, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("flow did not complete")
	}
	if !approx(s.Now().Seconds(), 1.0, 0.001) {
		t.Fatalf("185MB at 185MB/s took %v, want 1s", s.Now())
	}
}

func TestTwoFlowsShareRootEvenly(t *testing.T) {
	s, fs := newFS(t)
	fs.SetResource("root/up", 300e6)
	var doneAt []time.Duration
	for _, id := range []string{"f1", "f2"} {
		id := id
		fs.StartFlow(&Flow{ID: id, Demand: 185e6, UnitsPerByte: map[string]float64{"root/up": 1}},
			150e6, func() { doneAt = append(doneAt, s.Now()) })
	}
	// Both demand 185 but share 300 => 150 each. 150MB each => 1s each.
	s.Run()
	if len(doneAt) != 2 {
		t.Fatalf("completions = %d", len(doneAt))
	}
	for _, at := range doneAt {
		if !approx(at.Seconds(), 1.0, 0.001) {
			t.Fatalf("completion at %v, want 1s (fair share 150MB/s)", at)
		}
	}
}

func TestMaxMinFairnessWithSmallDemand(t *testing.T) {
	// small gets its full 50; big1/big2 split the remaining 250 => 125 each.
	_, fs := newFS(t)
	fs.SetResource("root/up", 300e6)
	fSmall := &Flow{ID: "small", Demand: 50e6, UnitsPerByte: map[string]float64{"root/up": 1}}
	fBig1 := &Flow{ID: "big1", Demand: 200e6, UnitsPerByte: map[string]float64{"root/up": 1}}
	fBig2 := &Flow{ID: "big2", Demand: 200e6, UnitsPerByte: map[string]float64{"root/up": 1}}
	fs.StartFlow(fSmall, -1, nil)
	fs.StartFlow(fBig1, -1, nil)
	fs.StartFlow(fBig2, -1, nil)
	if !approx(fSmall.Rate(), 50e6, 0.001) {
		t.Fatalf("small rate = %v, want 50e6", fSmall.Rate())
	}
	if !approx(fBig1.Rate(), 125e6, 0.001) || !approx(fBig2.Rate(), 125e6, 0.001) {
		t.Fatalf("big rates = %v/%v, want 125e6 each", fBig1.Rate(), fBig2.Rate())
	}
	if u := (fSmall.Rate() + fBig1.Rate() + fBig2.Rate()) / 300e6; !approx(u, 1.0, 0.001) {
		t.Fatalf("utilization = %v, want 1.0", u)
	}
}

func TestDuplexDirectionsIndependent(t *testing.T) {
	// Half the disks read (upstream), half write (downstream): total moves
	// 2x one direction's capacity — the paper's 540 MB/s per port effect.
	_, fs := newFS(t)
	fs.SetResource("root/up", 270e6)
	fs.SetResource("root/down", 270e6)
	var flows []*Flow
	for i := 0; i < 2; i++ {
		fr := &Flow{ID: "r" + string(rune('0'+i)), Demand: 185e6, UnitsPerByte: map[string]float64{"root/up": 1}}
		fw := &Flow{ID: "w" + string(rune('0'+i)), Demand: 185e6, UnitsPerByte: map[string]float64{"root/down": 1}}
		fs.StartFlow(fr, -1, nil)
		fs.StartFlow(fw, -1, nil)
		flows = append(flows, fr, fw)
	}
	total := 0.0
	for _, f := range flows {
		total += f.Rate()
	}
	if !approx(total, 540e6, 0.001) {
		t.Fatalf("duplex total = %v, want 540e6", total)
	}
}

func TestHubUplinkBottleneck(t *testing.T) {
	// 4 disks behind one hub: hub uplink 400MB/s binds before the per-disk
	// demand sum (4*185=740), root at 300 binds tighter still.
	_, fs := newFS(t)
	fs.SetResource("hub1/up", LinkBytesPerSec)
	fs.SetResource("root/up", RootPortBytesPerSec)
	var flows []*Flow
	for i := 0; i < 4; i++ {
		f := &Flow{ID: "d" + string(rune('0'+i)), Demand: 185e6,
			UnitsPerByte: map[string]float64{"hub1/up": 1, "root/up": 1}}
		fs.StartFlow(f, -1, nil)
		flows = append(flows, f)
	}
	total := 0.0
	for _, f := range flows {
		total += f.Rate()
		if !approx(f.Rate(), 75e6, 0.01) {
			t.Fatalf("per-disk rate = %v, want 75e6", f.Rate())
		}
	}
	if !approx(total, 300e6, 0.001) {
		t.Fatalf("total = %v, want root-capped 300e6", total)
	}
}

func TestCommandRateCapSmallTransfers(t *testing.T) {
	// 12 disks doing 4KB sequential reads: per-disk standalone ~5380 IO/s
	// (22MB/s); the root command resource caps the aggregate at ~43.5k
	// IO/s, so 12 disks get no more than ~8 disks' worth — Figure 5's
	// small-transfer saturation.
	_, fs := newFS(t)
	fs.SetResource("root/up", RootPortBytesPerSec)
	fs.SetResource("cmd", RootPortCmdsPerSec)
	const xfer = 4096.0
	perDiskBytes := 5380 * xfer // ~22 MB/s
	mk := func(n int) float64 {
		s2, fs2 := newFS(t)
		_ = s2
		fs2.SetResource("root/up", RootPortBytesPerSec)
		fs2.SetResource("cmd", RootPortCmdsPerSec)
		var fl []*Flow
		for i := 0; i < n; i++ {
			f := &Flow{ID: "d" + string(rune('a'+i)), Demand: perDiskBytes,
				UnitsPerByte: map[string]float64{"root/up": 1, "cmd": 1 / xfer}}
			fs2.StartFlow(f, -1, nil)
			fl = append(fl, f)
		}
		tot := 0.0
		for _, f := range fl {
			tot += f.Rate()
		}
		return tot
	}
	t4 := mk(4)
	t8 := mk(8)
	t12 := mk(12)
	if !approx(t4, 4*perDiskBytes, 0.01) {
		t.Fatalf("4 disks = %.1f MB/s, want linear %.1f", t4/1e6, 4*perDiskBytes/1e6)
	}
	cmdCap := RootPortCmdsPerSec * xfer
	if !approx(t8, math.Min(8*perDiskBytes, cmdCap), 0.02) {
		t.Fatalf("8 disks = %.1f MB/s", t8/1e6)
	}
	if !approx(t12, cmdCap, 0.01) {
		t.Fatalf("12 disks = %.1f MB/s, want cmd-capped %.1f", t12/1e6, cmdCap/1e6)
	}
	if t12 > t8*1.05 {
		t.Fatalf("throughput kept scaling past saturation: 8=%v 12=%v", t8, t12)
	}
}

func TestFlowCompletionTimeUnderContention(t *testing.T) {
	// f1 runs alone for 1s at 300, then shares with f2 at 150 each.
	s, fs := newFS(t)
	fs.SetResource("root/up", 300e6)
	var f1Done, f2Done time.Duration
	fs.StartFlow(&Flow{ID: "f1", Demand: 400e6, UnitsPerByte: map[string]float64{"root/up": 1}},
		450e6, func() { f1Done = s.Now() })
	s.After(time.Second, func() {
		fs.StartFlow(&Flow{ID: "f2", Demand: 400e6, UnitsPerByte: map[string]float64{"root/up": 1}},
			300e6, func() { f2Done = s.Now() })
	})
	s.Run()
	// f1: 300MB in first second, remaining 150 at 150MB/s => done at 2s.
	if !approx(f1Done.Seconds(), 2.0, 0.01) {
		t.Fatalf("f1 done at %v, want 2s", f1Done)
	}
	// f2: 150MB while sharing (1s), then 150MB alone at 300 (0.5s) => 2.5s.
	if !approx(f2Done.Seconds(), 2.5, 0.01) {
		t.Fatalf("f2 done at %v, want 2.5s", f2Done)
	}
}

func TestStopFlowReleasesBandwidth(t *testing.T) {
	s, fs := newFS(t)
	fs.SetResource("root/up", 300e6)
	f1 := &Flow{ID: "f1", Demand: 400e6, UnitsPerByte: map[string]float64{"root/up": 1}}
	f2 := &Flow{ID: "f2", Demand: 400e6, UnitsPerByte: map[string]float64{"root/up": 1}}
	fs.StartFlow(f1, -1, nil)
	fs.StartFlow(f2, -1, nil)
	if !approx(f1.Rate(), 150e6, 0.001) {
		t.Fatalf("f1 rate = %v", f1.Rate())
	}
	fs.StopFlow("f2")
	if !approx(f1.Rate(), 300e6, 0.001) {
		t.Fatalf("f1 rate after stop = %v, want full 300e6", f1.Rate())
	}
	fs.StopFlow("ghost") // no-op
	_ = s
	if len(fs.flows) != 1 {
		t.Fatalf("flows = %d", len(fs.flows))
	}
}

func TestMovedAccounting(t *testing.T) {
	s, fs := newFS(t)
	fs.SetResource("root/up", 100e6)
	f := &Flow{ID: "f", Demand: 100e6, UnitsPerByte: map[string]float64{"root/up": 1}}
	fs.StartFlow(f, -1, nil)
	s.RunFor(2 * time.Second)
	fs.StopFlow("f")
	if !approx(f.moved, 200e6, 0.001) {
		t.Fatalf("moved = %v, want 200e6", f.moved)
	}
}

func TestFlowValidation(t *testing.T) {
	_, fs := newFS(t)
	fs.SetResource("r", 100)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero demand", func() {
		fs.StartFlow(&Flow{ID: "z", Demand: 0, UnitsPerByte: map[string]float64{"r": 1}}, -1, nil)
	})
	mustPanic("unknown resource", func() {
		fs.StartFlow(&Flow{ID: "u", Demand: 1, UnitsPerByte: map[string]float64{"nope": 1}}, -1, nil)
	})
	fs.StartFlow(&Flow{ID: "a", Demand: 1, UnitsPerByte: map[string]float64{"r": 1}}, -1, nil)
	mustPanic("duplicate id", func() {
		fs.StartFlow(&Flow{ID: "a", Demand: 1, UnitsPerByte: map[string]float64{"r": 1}}, -1, nil)
	})
	mustPanic("bad capacity", func() { fs.SetResource("bad", 0) })
}
