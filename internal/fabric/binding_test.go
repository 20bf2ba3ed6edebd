package fabric

import (
	"testing"
	"time"

	"ustore/internal/simtime"
	"ustore/internal/usb"
)

func protoBinding(t *testing.T) (*simtime.Scheduler, *Fabric, *Binding) {
	t.Helper()
	s := simtime.NewScheduler(1)
	f := proto(t)
	b := NewBinding(f, usb.MaxDevicesPerTree,
		func() time.Duration { return s.Now() },
		func(d time.Duration, fn func()) { s.After(d, fn) })
	s.Run() // complete initial enumeration
	return s, f, b
}

// enumeratedOn lists the disks host h has enumerated, in fabric order.
func enumeratedOn(f *Fabric, b *Binding, h string) []string {
	var out []string
	for _, d := range f.Disks() {
		if b.HostOf(d) == h && b.Device(d).Enumerated {
			out = append(out, string(d))
		}
	}
	return out
}

func TestInitialEnumeration(t *testing.T) {
	_, f, b := protoBinding(t)
	for _, h := range f.Hosts() {
		got := enumeratedOn(f, b, h)
		if len(got) != 4 {
			t.Fatalf("host %s sees %v, want 4 disks", h, got)
		}
	}
}

func TestSwitchTurnMovesUSBSubtree(t *testing.T) {
	s, f, b := protoBinding(t)
	var enumerated, detached []string
	b.OnStorageEnumerated = func(host string, d NodeID) { enumerated = append(enumerated, host+"/"+string(d)) }
	b.OnStorageDetached = func(host string, d NodeID) { detached = append(detached, host+"/"+string(d)) }

	src, _ := f.AttachedHost(DiskID(0))
	dst := otherHost(f, src)
	turns, err := f.ForcedTurns(moveGroupPairs(f, 0, dst))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range turns {
		if err := f.SetSwitch(st.Switch, st.Sel); err != nil {
			t.Fatal(err)
		}
	}
	// Detach events are immediate.
	if len(detached) != 4 {
		t.Fatalf("detached = %v, want the 4 group disks", detached)
	}
	// Enumeration on the destination completes after detect + serial delay.
	s.Run()
	if len(enumerated) != 4 {
		t.Fatalf("enumerated = %v", enumerated)
	}
	for _, e := range enumerated {
		if e[:2] != dst {
			t.Fatalf("enumerated on wrong host: %v", enumerated)
		}
	}
	if n := len(enumeratedOn(f, b, dst)); n != 8 {
		t.Fatalf("dst sees %d disks, want 8", n)
	}
	if n := len(enumeratedOn(f, b, src)); n != 0 {
		t.Fatalf("src still sees %d disks", n)
	}
}

func TestEnumerationDelayGrowsWithDisksSwitched(t *testing.T) {
	// The Figure 6 part-1 mechanism: switching more disks at once takes
	// longer to fully recognize because enumeration is serialized.
	measure := func(groups int) time.Duration {
		s := simtime.NewScheduler(1)
		f, err := Prototype()
		if err != nil {
			t.Fatal(err)
		}
		b := NewBinding(f, usb.MaxDevicesPerTree,
			func() time.Duration { return s.Now() },
			func(d time.Duration, fn func()) { s.After(d, fn) })
		s.Run()
		// All groups switch to the same destination host (the paper's
		// experiment moves n disks to one receiving host at once).
		dst := f.Hosts()[3]
		var pairs []DiskHost
		for g := 0; g < groups; g++ {
			if src, _ := f.AttachedHost(DiskID(g * 4)); src == dst {
				continue
			}
			pairs = append(pairs, moveGroupPairs(f, g, dst)...)
		}
		want := len(pairs)
		got := 0
		var last simtime.Time
		b.OnStorageEnumerated = func(host string, d NodeID) {
			got++
			last = s.Now()
		}
		start := s.Now()
		turns, err := f.ForcedTurns(pairs)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range turns {
			_ = f.SetSwitch(st.Switch, st.Sel)
		}
		s.Run()
		if got != want {
			t.Fatalf("enumerated %d of %d", got, want)
		}
		return last - start
	}
	d1 := measure(1)
	d2 := measure(2)
	d3 := measure(3)
	if !(d1 < d2 && d2 < d3) {
		t.Fatalf("recognition delay not growing: %v %v %v", d1, d2, d3)
	}
}

func TestFailedHubDetachesSubtree(t *testing.T) {
	_, f, b := protoBinding(t)
	h, _ := f.AttachedHost(DiskID(0))
	path, _ := f.PathToRoot(DiskID(0))
	var leafHub NodeID
	for _, id := range path {
		if f.Node(id).Kind == KindHub {
			leafHub = id
			break
		}
	}
	var detached []string
	b.OnStorageDetached = func(host string, d NodeID) { detached = append(detached, string(d)) }
	if err := f.Fail(leafHub); err != nil {
		t.Fatal(err)
	}
	b.Resync()
	if len(detached) != 4 {
		t.Fatalf("detached = %v, want 4 disks under failed hub", detached)
	}
	if n := len(enumeratedOn(f, b, h)); n != 0 {
		t.Fatalf("host still sees %d disks", n)
	}
}

func TestPowerCutDetachesDisk(t *testing.T) {
	s, f, b := protoBinding(t)
	h, _ := f.AttachedHost(DiskID(0))
	if err := f.SetPower(DiskID(0), false); err != nil {
		t.Fatal(err)
	}
	b.Resync()
	s.Run()
	for _, id := range enumeratedOn(f, b, h) {
		if id == string(DiskID(0)) {
			t.Fatal("unpowered disk still enumerated")
		}
	}
	// Restore: disk re-enumerates on the same host.
	if err := f.SetPower(DiskID(0), true); err != nil {
		t.Fatal(err)
	}
	b.Resync()
	s.Run()
	found := false
	for _, id := range enumeratedOn(f, b, h) {
		if id == string(DiskID(0)) {
			found = true
		}
	}
	if !found {
		t.Fatal("re-powered disk did not re-enumerate")
	}
}

func TestHostOf(t *testing.T) {
	_, f, b := protoBinding(t)
	for _, d := range f.Disks() {
		want, err := f.AttachedHost(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.HostOf(d); got != want {
			t.Fatalf("HostOf(%s) = %q, want %q", d, got, want)
		}
	}
}

func TestDataPath(t *testing.T) {
	_, f, _ := protoBinding(t)
	hubs, host, err := f.DataPath(DiskID(0))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := f.AttachedHost(DiskID(0))
	if host != want {
		t.Fatalf("host = %s, want %s", host, want)
	}
	if len(hubs) != 2 {
		t.Fatalf("hubs = %v, want leaf + aggregation", hubs)
	}
}

func TestBindingTreeMatchesUSBTree(t *testing.T) {
	_, f, b := protoBinding(t)
	for _, h := range f.Hosts() {
		tr := b.HostController(h).Tree()
		var hubs, storage int
		for _, e := range tr {
			switch e.Class {
			case usb.ClassHub:
				hubs++
			case usb.ClassStorage:
				storage++
			}
		}
		if hubs != 2 || storage != 4 {
			t.Fatalf("host %s usb tree: %d hubs %d disks", h, hubs, storage)
		}
	}
}
