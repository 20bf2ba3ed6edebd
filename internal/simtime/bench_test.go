package simtime

import (
	"testing"
	"time"
)

// BenchmarkSchedulerTickers models the dominant periodic load of a long
// simulation: many tickers (heartbeats, scrub polls, power-manager sweeps)
// firing over a simulated hour. One op = one simulated hour.
func BenchmarkSchedulerTickers(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewScheduler(1)
		for t := 0; t < 64; t++ {
			s.Every(500*time.Millisecond, func() {})
		}
		s.RunUntil(time.Hour)
	}
}

// BenchmarkSchedulerShortTimers models the simnet delivery pattern: bursts
// of short one-shot timers (sub-millisecond deliveries) that fire and
// immediately schedule more, using the pooled fire-and-forget path the
// network layer uses. One op = one million fired events.
func BenchmarkSchedulerShortTimers(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewScheduler(1)
		var spawn func()
		n := 0
		spawn = func() {
			n++
			if n >= 1_000_000 {
				return
			}
			d := time.Duration(200+s.Rand().Intn(800)) * time.Microsecond
			s.FireAfter(d, spawn)
		}
		for j := 0; j < 32; j++ {
			s.After(time.Duration(j)*time.Microsecond, spawn)
		}
		s.Run()
	}
}

// BenchmarkSchedulerCancelledTimeouts models the RPC-timeout pattern: every
// "call" arms a timeout seconds out and cancels it moments later when the
// reply arrives, so nearly every timer leaves the queue by Cancel.
func BenchmarkSchedulerCancelledTimeouts(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewScheduler(1)
		n := 0
		var call func()
		call = func() {
			n++
			if n >= 200_000 {
				return
			}
			timeout := s.After(2*time.Second, func() {})
			s.After(400*time.Microsecond, func() {
				timeout.Cancel()
				call()
			})
		}
		for j := 0; j < 16; j++ {
			s.After(time.Duration(j)*time.Microsecond, call)
		}
		s.Run()
	}
}
