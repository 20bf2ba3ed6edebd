package disk

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ustore/internal/simtime"
)

func TestPowerOffDuringSpinUp(t *testing.T) {
	s := simtime.NewScheduler(1)
	d := New(s, "d0", DT01ACA300(), AttachFabric)
	var errs []error
	d.Submit(&Request{ // triggers auto spin-up
		Op:   Op{Read: true, Size: 4096, Pattern: Sequential},
		Done: func(_ []byte, err error) { errs = append(errs, err) },
	})
	if d.State() != StateSpinningUp {
		t.Fatalf("state = %v, want spinning-up", d.State())
	}
	s.RunFor(2 * time.Second) // mid-spin-up
	d.PowerOff()
	s.Run()
	if d.State() != StatePoweredOff {
		t.Fatalf("state = %v", d.State())
	}
	if len(errs) != 1 || !errors.Is(errs[0], ErrPoweredOff) {
		t.Fatalf("queued IO errs = %v, want ErrPoweredOff", errs)
	}
	// Power back on and access again: fresh spin-up required.
	d.PowerOn()
	var ok bool
	d.Submit(&Request{
		Op:   Op{Read: true, Size: 4096, Pattern: Sequential},
		Done: func(_ []byte, err error) { ok = err == nil },
	})
	s.Run()
	if !ok {
		t.Fatal("IO after power cycle failed")
	}
	if d.SpinUpCount() != 2 {
		t.Fatalf("spin-ups = %d, want 2", d.SpinUpCount())
	}
}

func TestPowerOffMidIOFailsQueueNotData(t *testing.T) {
	s := simtime.NewScheduler(1)
	d := New(s, "d0", DT01ACA300(), AttachFabric)
	d.SpinUp()
	s.Run()
	// Write some data fully, then power-cycle: data survives (platters
	// are nonvolatile).
	payload := []byte("survives power cycles")
	d.Submit(&Request{Op: Op{Read: false, Size: len(payload), Pattern: Sequential}, Offset: 0, Data: payload})
	s.Run()
	d.PowerOff()
	d.PowerOn()
	d.SpinUp()
	s.Run()
	var got []byte
	d.Submit(&Request{
		Op: Op{Read: true, Size: len(payload), Pattern: Sequential}, Offset: 0,
		Done: func(b []byte, err error) { got = b },
	})
	s.Run()
	if string(got) != string(payload) {
		t.Fatalf("data lost across power cycle: %q", got)
	}
}

func TestSubmitWhileSpinningUpQueues(t *testing.T) {
	s := simtime.NewScheduler(1)
	d := New(s, "d0", DT01ACA300(), AttachFabric)
	done := 0
	for i := 0; i < 3; i++ {
		d.Submit(&Request{
			Op:   Op{Read: true, Size: 4096, Pattern: Sequential},
			Done: func([]byte, error) { done++ },
		})
	}
	if d.QueueDepth() != 3 {
		t.Fatalf("queue depth = %d", d.QueueDepth())
	}
	if d.SpinUpCount() != 1 {
		t.Fatalf("spin-ups = %d, want a single spin-up for the burst", d.SpinUpCount())
	}
	s.Run()
	if done != 3 {
		t.Fatalf("completed %d of 3", done)
	}
}

func TestSpinDownSpinUpCycleCounts(t *testing.T) {
	s := simtime.NewScheduler(1)
	d := New(s, "d0", DT01ACA300(), AttachFabric)
	for i := 0; i < 5; i++ {
		d.SpinUp()
		s.Run()
		d.SpinDown()
	}
	if d.SpinUpCount() != 5 {
		t.Fatalf("spin-ups = %d", d.SpinUpCount())
	}
	if d.State() != StateSpunDown {
		t.Fatalf("state = %v", d.State())
	}
	// SpinUp while already idle is a no-op.
	d.SpinUp()
	s.Run()
	d.SpinUp()
	if d.SpinUpCount() != 6 {
		t.Fatalf("idle SpinUp incremented count: %d", d.SpinUpCount())
	}
}

func TestInterconnectSwitchMidStream(t *testing.T) {
	// A disk switched from fabric to SATA mid-stream services subsequent
	// IO at SATA cost (the calibration bench relies on this).
	s := simtime.NewScheduler(1)
	d := New(s, "d0", DT01ACA300(), AttachFabric)
	d.SpinUp()
	s.Run()
	op := Op{Read: true, Size: 4096, Pattern: Sequential}
	d.Submit(&Request{Op: op})
	s.Run()
	fabricBusy := d.busy
	d.SetInterconnect(AttachSATA)
	d.Submit(&Request{Op: op})
	s.Run()
	sataCost := d.busy - fabricBusy
	if sataCost >= fabricBusy {
		t.Fatalf("SATA op (%v) not cheaper than fabric op (%v)", sataCost, fabricBusy)
	}
	if d.ic != AttachSATA {
		t.Fatalf("interconnect = %v", d.ic)
	}
}

func TestMultipleStateObservers(t *testing.T) {
	s := simtime.NewScheduler(1)
	d := New(s, "d0", DT01ACA300(), AttachFabric)
	a, b := 0, 0
	d.OnStateChange(func(_, _ State) { a++ })
	d.OnStateChange(func(_, _ State) { b++ })
	d.SpinUp()
	s.Run()
	if a == 0 || a != b {
		t.Fatalf("observers fired %d/%d, want equal and nonzero", a, b)
	}
}

// A slow IO still in service when the power is cut leaves its completion
// event behind. If the disk powers back on and starts a fresh IO before that
// event fires, the event must not complete the fresh IO (whose Done would
// then never run), must not run the failed IO's Done a second time, and must
// not store the payload of a write the power cut already failed.
func TestStaleCompletionAfterPowerCycle(t *testing.T) {
	s := simtime.NewScheduler(1)
	p := DT01ACA300()
	p.SpinUpTime = 10 * time.Millisecond
	d := New(s, "d0", p, AttachSATA)
	d.Degrade(DegradeParams{ExtraLatency: time.Second})
	d.SpinUp()
	s.Run()

	var doneA, doneB int
	var errA, errB error
	stale := bytes.Repeat([]byte{0xAA}, 4096)
	d.Submit(&Request{Op: Op{Size: len(stale), Pattern: Random}, Offset: 0, Data: stale,
		Done: func(_ []byte, err error) { doneA++; errA = err }})
	s.RunFor(100 * time.Millisecond) // A is in service, ~1 s to go
	d.PowerOff()
	d.PowerOn()
	fresh := bytes.Repeat([]byte{0xBB}, 4096)
	d.Submit(&Request{Op: Op{Size: len(fresh), Pattern: Random}, Offset: 1 << 20, Data: fresh,
		Done: func(_ []byte, err error) { doneB++; errB = err }})
	// B spins the disk up and is in service when A's completion falls due.
	s.RunFor(500 * time.Millisecond)
	if d.State() != StateActive || d.QueueDepth() != 1 {
		t.Fatalf("setup: want B in service, got state %v queue %d", d.State(), d.QueueDepth())
	}
	s.Run()

	if doneA != 1 || !errors.Is(errA, ErrPoweredOff) {
		t.Errorf("failed write: Done ran %d times, last err %v; want once with ErrPoweredOff", doneA, errA)
	}
	if doneB != 1 || errB != nil {
		t.Errorf("fresh write: Done ran %d times, last err %v; want once with nil", doneB, errB)
	}
	got := make([]byte, len(stale))
	d.Store().ReadInto(0, got)
	if bytes.Equal(got, stale) {
		t.Error("the power cut failed the write, yet its payload reached the store")
	}
	d.Store().ReadInto(1<<20, got)
	if !bytes.Equal(got, fresh) {
		t.Error("the fresh write's payload is not in the store")
	}
	if d.QueueDepth() != 0 || d.State() != StateIdle {
		t.Errorf("after the run: state %v queue %d, want idle and empty", d.State(), d.QueueDepth())
	}
}

// With no recorder bound, a state transition builds no trace name or label.
func TestSetStateWithoutRecorderAllocatesNothing(t *testing.T) {
	_, d := newDisk(t)
	if n := testing.AllocsPerRun(100, func() {
		d.setState(StateActive)
		d.setState(StateIdle)
	}); n != 0 {
		t.Fatalf("setState with no recorder allocates %v objects per round trip, want 0", n)
	}
}
