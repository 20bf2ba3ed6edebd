package simtime

import (
	"testing"
	"time"
)

// TestPendingExactUnderArmCancelStorm drives the scheduler through an
// arm-cancel storm covering every cancellation timing — before the event
// fires, after it fires, twice, and from inside a ticker's own callback — and
// checks that Pending() settles to the exact live-event count. A Cancel after
// the event fired must change nothing: an engine polling Pending() and
// NextEventAt for idleness would otherwise spin on ghost events forever.
func TestPendingExactUnderArmCancelStorm(t *testing.T) {
	s := NewScheduler(1)

	var fired []*Event
	for round := 0; round < 8; round++ {
		for i := 0; i < 400; i++ {
			e := s.After(time.Duration(i%50)*time.Millisecond, func() {})
			switch i % 4 {
			case 0: // cancel while queued
				e.Cancel()
			case 1: // cancel twice while queued (idempotent)
				e.Cancel()
				e.Cancel()
			default: // let it fire, then cancel late (the leak case)
				fired = append(fired, e)
			}
		}
		s.RunFor(time.Second)
		for _, e := range fired {
			e.Cancel() // post-fire: must not count as pending-cancelled
			e.Cancel()
		}
		fired = fired[:0]
	}

	// Tickers stopped from their own callback: the event has already fired
	// when Stop cancels it, the other historical leak.
	for i := 0; i < 100; i++ {
		var tk *Ticker
		ticks := 0
		tk = s.Every(time.Millisecond, func() {
			ticks++
			if ticks >= 3 {
				tk.Stop()
			}
		})
	}
	s.RunFor(time.Second)

	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after storm drain, want 0", got)
	}
	if _, ok := s.NextEventAt(); ok {
		t.Fatal("NextEventAt reports an event on a drained scheduler")
	}

	// The counters must stay exact, not just non-negative: one live event
	// among fresh cancelled ones is reported as exactly one.
	for i := 0; i < 100; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {}).Cancel()
	}
	live := s.After(5*time.Millisecond, func() {})
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d with one live event among cancelled, want 1", got)
	}
	if at, ok := s.NextEventAt(); !ok || at != live.At {
		t.Fatalf("NextEventAt = %v,%v, want %v,true", at, ok, live.At)
	}
}

// TestNextEventAtSkipsCancelledHead pins that the probe never reports a
// cancelled deadline.
func TestNextEventAtSkipsCancelledHead(t *testing.T) {
	s := NewScheduler(1)
	head := s.After(5*time.Millisecond, func() {})
	s.After(10*time.Millisecond, func() {})
	head.Cancel()
	at, ok := s.NextEventAt()
	if !ok || at != 10*time.Millisecond {
		t.Fatalf("NextEventAt = %v,%v, want 10ms,true", at, ok)
	}
}
