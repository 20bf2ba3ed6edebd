package disk

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ustore/internal/simtime"
)

func newDisk(t *testing.T) (*simtime.Scheduler, *Disk) {
	t.Helper()
	s := simtime.NewScheduler(1)
	d := New(s, "d0", DT01ACA300(), AttachSATA)
	d.SpinUp()
	s.Run()
	if d.State() != StateIdle {
		t.Fatalf("state after spin-up = %v, want idle", d.State())
	}
	return s, d
}

func TestServiceTimeMatchesTableIISpotChecks(t *testing.T) {
	p := DT01ACA300()
	// Spot-check that the calibrated model lands near the paper's Table II
	// single-op rates (tolerance 10%: the table also folds in Iometer
	// harness behaviour we reproduce in internal/workload).
	cases := []struct {
		name     string
		ic       Interconnect
		op       Op
		wantIOPS float64
		tol      float64
	}{
		{"SATA 4KB seq read", AttachSATA, Op{Read: true, Size: 4096, Pattern: Sequential}, 13378, 0.10},
		{"SATA 4KB seq write", AttachSATA, Op{Read: false, Size: 4096, Pattern: Sequential}, 11211, 0.10},
		{"USB 4KB seq read", AttachUSB, Op{Read: true, Size: 4096, Pattern: Sequential}, 5380, 0.10},
		{"USB 4KB seq write", AttachUSB, Op{Read: false, Size: 4096, Pattern: Sequential}, 6166, 0.10},
		{"H&S 4KB seq read", AttachFabric, Op{Read: true, Size: 4096, Pattern: Sequential}, 5381, 0.10},
		{"SATA 4KB rand read", AttachSATA, Op{Read: true, Size: 4096, Pattern: Random}, 191.9, 0.10},
		{"SATA 4KB rand write", AttachSATA, Op{Read: false, Size: 4096, Pattern: Random}, 86.9, 0.10},
	}
	for _, c := range cases {
		svc := p.ServiceTime(c.ic, c.op)
		iops := float64(time.Second) / float64(svc)
		lo, hi := c.wantIOPS*(1-c.tol), c.wantIOPS*(1+c.tol)
		if iops < lo || iops > hi {
			t.Errorf("%s: model %.1f IO/s, paper %.1f (tol %.0f%%)", c.name, iops, c.wantIOPS, c.tol*100)
		}
	}
}

func TestServiceTimeLargeSequentialHitsMediaRate(t *testing.T) {
	p := DT01ACA300()
	for _, ic := range []Interconnect{AttachSATA, AttachUSB, AttachFabric} {
		svc := p.ServiceTime(ic, Op{Read: true, Size: 4 << 20, Pattern: Sequential})
		mbps := float64(4<<20) / svc.Seconds() / 1e6
		if mbps < 175 || mbps > 195 {
			t.Errorf("%v 4MB seq read = %.1f MB/s, want ~185", ic, mbps)
		}
	}
}

func TestServiceTimeTurnaroundPenalty(t *testing.T) {
	p := DT01ACA300()
	base := p.ServiceTime(AttachSATA, Op{Read: true, Size: 4096, Pattern: Sequential})
	sw := p.ServiceTime(AttachSATA, Op{Read: true, Size: 4096, Pattern: Sequential, DirectionSwitch: true})
	if sw-base != p.Turnaround[AttachSATA] {
		t.Fatalf("turnaround delta = %v, want %v", sw-base, p.Turnaround[AttachSATA])
	}
}

func TestServiceTimePanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero-size op")
		}
	}()
	p := DT01ACA300()
	p.ServiceTime(AttachSATA, Op{Read: true, Size: 0})
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	s, d := newDisk(t)
	payload := []byte("cold archival bytes")
	var readBack []byte
	d.Submit(&Request{
		Op: Op{Read: false, Size: len(payload), Pattern: Sequential}, Offset: 4096, Data: payload,
		Done: func(_ []byte, err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
			d.Submit(&Request{
				Op: Op{Read: true, Size: len(payload), Pattern: Sequential}, Offset: 4096,
				Done: func(data []byte, err error) {
					if err != nil {
						t.Errorf("read: %v", err)
					}
					readBack = data
				},
			})
		},
	})
	s.Run()
	if !bytes.Equal(readBack, payload) {
		t.Fatalf("read back %q, want %q", readBack, payload)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	s, d := newDisk(t)
	var data []byte
	d.Submit(&Request{
		Op: Op{Read: true, Size: 128, Pattern: Random}, Offset: 1 << 30,
		Done: func(b []byte, err error) { data = b },
	})
	s.Run()
	if len(data) != 128 {
		t.Fatalf("len = %d", len(data))
	}
	for _, b := range data {
		if b != 0 {
			t.Fatal("unwritten region not zero")
		}
	}
}

func TestFIFOAndBusyAccounting(t *testing.T) {
	s, d := newDisk(t)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		d.Submit(&Request{
			Op: Op{Read: true, Size: 4096, Pattern: Sequential}, Offset: int64(i) * 4096,
			Done: func([]byte, error) { order = append(order, i) },
		})
	}
	if d.QueueDepth() != 5 {
		t.Fatalf("queue depth = %d", d.QueueDepth())
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v", order)
		}
	}
	if d.completed != 5 || d.bytesRead != 5*4096 {
		t.Fatalf("completed=%d bytesRead=%d", d.completed, d.bytesRead)
	}
	wantBusy := 5 * d.Params().ServiceTime(AttachSATA, Op{Read: true, Size: 4096, Pattern: Sequential})
	if d.busy != wantBusy {
		t.Fatalf("busy = %v, want %v", d.busy, wantBusy)
	}
}

func TestOutOfRangeIO(t *testing.T) {
	s, d := newDisk(t)
	var gotErr error
	d.Submit(&Request{
		Op: Op{Read: true, Size: 4096, Pattern: Random}, Offset: d.Capacity() - 100,
		Done: func(_ []byte, err error) { gotErr = err },
	})
	s.Run()
	if !errors.Is(gotErr, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", gotErr)
	}
}

func TestAutoSpinUpOnSubmit(t *testing.T) {
	s := simtime.NewScheduler(1)
	d := New(s, "d0", DT01ACA300(), AttachSATA)
	if d.State() != StateSpunDown {
		t.Fatalf("new disk state = %v", d.State())
	}
	var doneAt simtime.Time
	d.Submit(&Request{
		Op: Op{Read: true, Size: 4096, Pattern: Sequential},
		Done: func([]byte, error) {
			doneAt = s.Now()
		},
	})
	s.Run()
	if doneAt < d.Params().SpinUpTime {
		t.Fatalf("IO completed at %v, before spin-up finished (%v)", doneAt, d.Params().SpinUpTime)
	}
	if d.SpinUpCount() != 1 {
		t.Fatalf("spin-ups = %d", d.SpinUpCount())
	}
}

func TestSpinDownOnlyWhenIdle(t *testing.T) {
	s, d := newDisk(t)
	d.Submit(&Request{Op: Op{Read: true, Size: 4 << 20, Pattern: Sequential}})
	d.SpinDown() // busy: must be ignored
	if d.State() == StateSpunDown {
		t.Fatal("spun down while busy")
	}
	s.Run()
	d.SpinDown()
	if d.State() != StateSpunDown {
		t.Fatalf("state = %v, want spun-down", d.State())
	}
}

func TestPowerOffFailsQueuedIO(t *testing.T) {
	s, d := newDisk(t)
	var errs []error
	for i := 0; i < 3; i++ {
		d.Submit(&Request{
			Op: Op{Read: true, Size: 4 << 20, Pattern: Sequential},
			Done: func(_ []byte, err error) {
				errs = append(errs, err)
			},
		})
	}
	d.PowerOff()
	s.Run()
	if len(errs) != 3 {
		t.Fatalf("callbacks = %d, want 3", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, ErrPoweredOff) {
			t.Fatalf("err = %v", err)
		}
	}
	// Submits while off fail immediately.
	var offErr error
	d.Submit(&Request{Op: Op{Read: true, Size: 4096}, Done: func(_ []byte, err error) { offErr = err }})
	s.Run()
	if !errors.Is(offErr, ErrPoweredOff) {
		t.Fatalf("err = %v", offErr)
	}
	// PowerOn returns to spun-down; data survives (disks keep data when off).
	d.PowerOn()
	if d.State() != StateSpunDown {
		t.Fatalf("state after PowerOn = %v", d.State())
	}
}

func TestStateChangeObserver(t *testing.T) {
	s := simtime.NewScheduler(1)
	d := New(s, "d0", DT01ACA300(), AttachSATA)
	var transitions []State
	d.OnStateChange(func(old, new State) { transitions = append(transitions, new) })
	d.SpinUp()
	s.Run()
	d.Submit(&Request{Op: Op{Read: true, Size: 4096, Pattern: Sequential}})
	s.Run()
	want := []State{StateSpinningUp, StateIdle, StateActive, StateIdle}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestPowerByState(t *testing.T) {
	p := DT01ACA300()
	if p.Power(StatePoweredOff) != 0 {
		t.Fatal("off draw != 0")
	}
	if p.Power(StateSpunDown) != 0.05 || p.Power(StateIdle) != 4.71 || p.Power(StateActive) != 6.66 {
		t.Fatalf("power = %v/%v/%v, want Table III SATA row", p.Power(StateSpunDown), p.Power(StateIdle), p.Power(StateActive))
	}
}

func TestIdleSince(t *testing.T) {
	s, d := newDisk(t)
	d.Submit(&Request{Op: Op{Read: true, Size: 4096, Pattern: Sequential}})
	s.Run()
	at, idle := d.IdleSince()
	if !idle {
		t.Fatal("not idle after queue drained")
	}
	if at != s.Now() {
		t.Fatalf("idle since %v, want %v", at, s.Now())
	}
}

// Property: the sparse store behaves exactly like a flat byte array for any
// sequence of writes and reads within a window.
func TestPropertyStoreMatchesFlatArray(t *testing.T) {
	const window = 1 << 20
	type wr struct {
		Off  uint32
		Data []byte
	}
	f := func(writes []wr, readOff uint32, readLen uint16) bool {
		st := NewStore()
		ref := make([]byte, window)
		for _, w := range writes {
			off := int64(w.Off % window)
			data := w.Data
			if int(off)+len(data) > window {
				data = data[:window-int(off)]
			}
			st.WriteAt(off, data)
			copy(ref[off:], data)
		}
		ro := int64(readOff % window)
		rl := int(readLen)
		if int(ro)+rl > window {
			rl = window - int(ro)
		}
		got := readStore(st, ro, rl)
		return bytes.Equal(got, ref[ro:int(ro)+rl])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any op, the fabric path (H&S) is never faster than the bare
// bridge (USB), and the bridge is never faster than SATA for reads.
func TestPropertyInterconnectOrdering(t *testing.T) {
	p := DT01ACA300()
	f := func(sizeKB uint8, read, random bool) bool {
		size := (int(sizeKB) + 1) * 1024
		pat := Sequential
		if random {
			pat = Random
		}
		op := Op{Read: read, Size: size, Pattern: pat}
		sata := p.ServiceTime(AttachSATA, op)
		usb := p.ServiceTime(AttachUSB, op)
		hs := p.ServiceTime(AttachFabric, op)
		return hs >= usb && usb >= sata
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}
