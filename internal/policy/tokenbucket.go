package policy

import (
	"ustore/internal/simtime"
)

// TokenBucket is the classic rate limiter: tokens refill continuously at
// Rate per second up to Burst, and each admitted request spends one. The
// bucket starts full, so a tenant's first burst up to Burst sails through
// and sustained demand is clipped to Rate. All arithmetic is driven by the
// caller-supplied clock; identical call sequences make identical
// decisions.
type TokenBucket struct {
	// Rate is the sustained refill in tokens per second.
	Rate float64
	// Burst is the bucket capacity (also the initial fill).
	Burst float64

	tokens float64
	last   simtime.Time
	primed bool
}

// refill advances the bucket to now.
func (tb *TokenBucket) refill(now simtime.Time) {
	if !tb.primed {
		tb.tokens = tb.Burst
		tb.last = now
		tb.primed = true
		return
	}
	if now <= tb.last {
		return
	}
	tb.tokens += (now - tb.last).Seconds() * tb.Rate
	if tb.tokens > tb.Burst {
		tb.tokens = tb.Burst
	}
	tb.last = now
}

// Allow spends one token if available and reports whether it could.
func (tb *TokenBucket) Allow(now simtime.Time) bool {
	return tb.TakeN(now, 1)
}

// TakeN spends n tokens atomically if available (weighted requests: a
// 4MiB restore can cost more than a stat).
func (tb *TokenBucket) TakeN(now simtime.Time, n float64) bool {
	tb.refill(now)
	if tb.tokens < n {
		return false
	}
	tb.tokens -= n
	return true
}
