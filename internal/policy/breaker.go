package policy

import (
	"time"

	"ustore/internal/simtime"
)

// Breaker tuning, chosen by the client mitigation stack (core) and kept
// here so the client and server sides share one definition.
const (
	// DefaultBreakerFails consecutive failures (or anomalously slow
	// completions — fail-slow is still a failure) open the breaker.
	DefaultBreakerFails = 3
	// DefaultBreakerOpenFor is the cool-down before a half-open probe.
	DefaultBreakerOpenFor = 5 * time.Second
)

// Breaker is a circuit breaker with half-open probing: after
// DefaultBreakerFails consecutive failures it opens for
// DefaultBreakerOpenFor, during which Open reports true; once the
// cool-down expires exactly one caller is let through as a probe (Open
// returns false for it) and that request's outcome decides the breaker's
// fate. The zero value is ready to use.
//
// This is the exact state machine PR 5's client-side mitigation used per
// block target, extracted so core's server-side protection can run the
// same breaker per disk.
type Breaker struct {
	fails     int
	openUntil simtime.Time
	probing   bool
}

// OnSuccess records a clean completion: the streak resets and the breaker
// closes fully (a successful half-open probe lands here).
func (b *Breaker) OnSuccess() {
	b.fails = 0
	b.openUntil = 0
	b.probing = false
}

// OnFailure records a failure (or a slow success the caller has decided
// counts against the target). It returns true when this failure is the
// transition that opens the breaker — the caller's cue to count/log the
// open exactly once. A failed half-open probe re-opens for another
// cool-down and also returns true.
func (b *Breaker) OnFailure(now simtime.Time) (opened bool) {
	b.fails++
	b.probing = false
	if b.fails >= DefaultBreakerFails && b.openUntil <= now {
		b.openUntil = now + DefaultBreakerOpenFor
		return true
	}
	return false
}

// Open reports whether the target is refusing traffic right now. At most
// one request per cool-down sees false while the breaker is otherwise
// open: that request is the half-open probe.
func (b *Breaker) Open(now simtime.Time) bool {
	if b.openUntil == 0 {
		return false
	}
	if now < b.openUntil {
		return true
	}
	if !b.probing {
		b.probing = true // this request is the half-open probe
		return false
	}
	return true
}
