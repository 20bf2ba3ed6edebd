package usb

import (
	"errors"
	"testing"
	"time"

	"ustore/internal/simtime"
)

func newHC(t *testing.T, limit int) (*simtime.Scheduler, *HostController) {
	t.Helper()
	s := simtime.NewScheduler(1)
	hc := NewHostController("h1", 4, limit,
		func() time.Duration { return s.Now() },
		func(d time.Duration, fn func()) { s.After(d, fn) })
	return s, hc
}

func TestAttachEnumerates(t *testing.T) {
	s, hc := newHC(t, 0)
	var enumed []string
	hc.OnEnumerated = func(d *Device) { enumed = append(enumed, d.ID) }
	dev := NewStorage("disk0")
	if err := hc.Attach(hc.Root(), 1, dev); err != nil {
		t.Fatal(err)
	}
	if dev.Enumerated {
		t.Fatal("enumerated before delay")
	}
	s.Run()
	if !dev.Enumerated || len(enumed) != 1 || enumed[0] != "disk0" {
		t.Fatalf("enumeration failed: %v", enumed)
	}
	if s.Now() != EnumDetectDelay+EnumPerDevice {
		t.Fatalf("enumerated at %v, want %v", s.Now(), EnumDetectDelay+EnumPerDevice)
	}
}

func TestSerializedEnumeration(t *testing.T) {
	s, hc := newHC(t, 0)
	var times []time.Duration
	hc.OnEnumerated = func(d *Device) { times = append(times, s.Now()) }
	for i := 1; i <= 4; i++ {
		if err := hc.Attach(hc.Root(), i, NewStorage("d"+string(rune('0'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if len(times) != 4 {
		t.Fatalf("enumerated %d devices", len(times))
	}
	for i := 1; i < 4; i++ {
		if times[i]-times[i-1] != EnumPerDevice {
			t.Fatalf("enumeration gaps not serialized: %v", times)
		}
	}
	// 4 simultaneously attached devices take detect + 4*perDevice total,
	// the growth behaviour behind Figure 6's first component.
	want := EnumDetectDelay + 4*EnumPerDevice
	if times[3] != want {
		t.Fatalf("last enumeration at %v, want %v", times[3], want)
	}
}

func TestAttachSubtreeEnumeratesParentFirst(t *testing.T) {
	s, hc := newHC(t, 0)
	var order []string
	hc.OnEnumerated = func(d *Device) { order = append(order, d.ID) }
	hub := NewHub("hub1", 4)
	d1 := NewStorage("d1")
	d2 := NewStorage("d2")
	hub.Children[1] = d1
	d1.parent = hub
	d1.port = 1
	hub.Children[2] = d2
	d2.parent = hub
	d2.port = 2
	if err := hc.Attach(hc.Root(), 1, hub); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(order) != 3 || order[0] != "hub1" {
		t.Fatalf("order = %v, want hub first", order)
	}
}

func TestDeviceLimitQuirk(t *testing.T) {
	_, hc := newHC(t, 0) // default Intel limit 14
	for i := 1; i <= 4; i++ {
		hub := NewHub("hub"+string(rune('0'+i)), 4)
		if err := hc.Attach(hc.Root(), i, hub); err != nil {
			t.Fatal(err)
		}
	}
	// 4 hubs attached; room for 10 more devices.
	attached := 0
	var lastErr error
	hubIdx := 0
	hubs := []*Device{}
	hc.Root().Walk(func(d *Device) {
		if d.Class == ClassHub && d != hc.Root() {
			hubs = append(hubs, d)
		}
	})
	for i := 0; i < 16; i++ {
		hub := hubs[hubIdx%len(hubs)]
		port := (i/len(hubs))%hub.Ports + 1
		err := hc.Attach(hub, port, NewStorage("disk"+string(rune('a'+i))))
		if err != nil {
			lastErr = err
			break
		}
		attached++
		hubIdx++
	}
	if attached != 10 {
		t.Fatalf("attached %d storage devices, want 10 (14-device quirk)", attached)
	}
	if !errors.Is(lastErr, ErrTreeFull) {
		t.Fatalf("err = %v, want ErrTreeFull", lastErr)
	}
}

func TestTierLimit(t *testing.T) {
	_, hc := newHC(t, 127)
	parent := hc.Root() // tier 1
	var err error
	for i := 0; i < 5; i++ {
		hub := NewHub("h"+string(rune('0'+i)), 4)
		err = hc.Attach(parent, 1, hub)
		if err != nil {
			break
		}
		parent = hub
	}
	// Root=1, so hubs land at tiers 2..5; the 5th hub would be tier 6.
	if !errors.Is(err, ErrTooDeep) {
		t.Fatalf("err = %v, want ErrTooDeep after 4 cascaded hubs", err)
	}
}

func TestPortValidation(t *testing.T) {
	_, hc := newHC(t, 0)
	if err := hc.Attach(hc.Root(), 99, NewStorage("d")); !errors.Is(err, ErrNoSuchPort) {
		t.Fatalf("err = %v", err)
	}
	if err := hc.Attach(hc.Root(), 1, NewStorage("a")); err != nil {
		t.Fatal(err)
	}
	if err := hc.Attach(hc.Root(), 1, NewStorage("b")); !errors.Is(err, ErrPortOccupied) {
		t.Fatalf("err = %v", err)
	}
	d := NewStorage("loose")
	if err := hc.Detach(d); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("err = %v", err)
	}
	stor := NewStorage("s")
	if err := hc.Attach(stor, 1, NewStorage("x")); err == nil {
		t.Fatal("attach to non-hub succeeded")
	}
}

func TestDetachFiresCallbacksAndCancelsEnumeration(t *testing.T) {
	s, hc := newHC(t, 0)
	var enumed, detached []string
	hc.OnEnumerated = func(d *Device) { enumed = append(enumed, d.ID) }
	hc.OnDetached = func(d *Device) { detached = append(detached, d.ID) }
	dev := NewStorage("d0")
	if err := hc.Attach(hc.Root(), 1, dev); err != nil {
		t.Fatal(err)
	}
	// Detach before enumeration completes.
	s.After(100*time.Millisecond, func() {
		if err := hc.Detach(dev); err != nil {
			t.Errorf("detach: %v", err)
		}
	})
	s.Run()
	if len(enumed) != 0 {
		t.Fatalf("detached device still enumerated: %v", enumed)
	}
	if len(detached) != 1 || detached[0] != "d0" {
		t.Fatalf("detached = %v", detached)
	}
}

func TestTreeSnapshotOnlyShowsEnumerated(t *testing.T) {
	s, hc := newHC(t, 0)
	hub := NewHub("hub1", 4)
	if err := hc.Attach(hc.Root(), 1, hub); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := hc.Attach(hub, 1, NewStorage("d1")); err != nil {
		t.Fatal(err)
	}
	// Before the enumeration delay the storage must not appear.
	tr := hc.Tree()
	if len(tr) != 1 || tr[0].ID != "hub1" {
		t.Fatalf("tree = %+v, want only hub1", tr)
	}
	s.Run()
	tr = hc.Tree()
	if len(tr) != 2 {
		t.Fatalf("tree = %+v", tr)
	}
	if tr[1].ID != "d1" || tr[1].Class != ClassStorage || tr[1].ParentID != "hub1" || tr[1].Tier != 3 {
		t.Fatalf("storage entry = %+v", tr[1])
	}
}

func TestReattachToOtherHostEnumeratesThere(t *testing.T) {
	s := simtime.NewScheduler(1)
	clock := func() time.Duration { return s.Now() }
	sched := func(d time.Duration, fn func()) { s.After(d, fn) }
	h1 := NewHostController("h1", 4, 0, clock, sched)
	h2 := NewHostController("h2", 4, 0, clock, sched)
	dev := NewStorage("d0")
	if err := h1.Attach(h1.Root(), 1, dev); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !dev.Enumerated {
		t.Fatal("not enumerated on h1")
	}
	// Switch: detach from h1, attach to h2 (what a fabric switch turn does).
	if err := h1.Detach(dev); err != nil {
		t.Fatal(err)
	}
	if dev.Enumerated {
		t.Fatal("still enumerated after detach")
	}
	if err := h2.Attach(h2.Root(), 2, dev); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !dev.Enumerated || len(h2.Tree()) != 1 || len(h1.Tree()) != 0 {
		t.Fatal("switch did not move the device to h2's tree")
	}
}
