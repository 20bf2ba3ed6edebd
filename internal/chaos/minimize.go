package chaos

import (
	"fmt"

	"ustore/internal/runner"
)

// MinimizeParallel runs the seeded schedule and, if it produced violations,
// bisects for the shortest schedule prefix that still violates, with up to
// parallel speculative probes per round (see bisectPrefix; parallel <= 1 is
// the plain sequential bisection, and every parallel returns the same
// bytes). Truncated prefixes are well-formed because the harness's drain
// phase heals any fault window whose closing event was cut off. Returns the
// minimized schedule, the report of its run, and the full run's report.
//
// If the full run is clean, MinimizeParallel returns (nil, nil, full, nil).
//
// Probe runs never feed o.Recorder (concurrent probes would interleave its
// trace nondeterministically, and speculated probes would pollute it with
// runs the sequential search never performs); only the initial full run
// records. The model-checker history needs no such carve-out: each probe's
// harness builds its own model.History (there is no history field on
// Options to leak through), so probe metadata ops can never reach the
// parent run's history — TestMinimizeProbesDoNotFeedParentRecorder covers
// both isolation properties.
func MinimizeParallel(o Options, parallel int) (schedule []Fault, minimized, full *Report, err error) {
	h, err := newHarness(o)
	if err != nil {
		return nil, nil, nil, err
	}
	return minimizeSchedule(h, o, genSchedule(o, h.hostNames(), h.diskNames(), h.leafHubNames(), h.machineNames()), parallel)
}

// minimizeSchedule is MinimizeParallel over an explicit schedule, whose
// full run executes on h.
func minimizeSchedule(h *harness, o Options, all []Fault, parallel int) (schedule []Fault, minimized, full *Report, err error) {
	full, err = h.execute(all)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(full.Violations) == 0 {
		return nil, nil, full, nil
	}
	oProbe := o
	oProbe.Recorder = nil
	k, minimized, err := bisectPrefix(len(all), parallel, full,
		func(k int) (*Report, error) { return RunSchedule(oProbe, all[:k]) },
		func(r *Report) bool { return len(r.Violations) > 0 })
	if err != nil {
		return nil, nil, nil, fmt.Errorf("chaos: minimizing: %w", err)
	}
	return all[:k], minimized, full, nil
}

// bisectPrefix binary-searches the smallest k in [1, n] whose schedule
// prefix still violates, given that the full length n does (full is its
// report), and returns k with the report of the run at k — full itself when
// the search converges on n. Fault interactions are not strictly monotone
// (a later fault can mask an earlier violation), so a violation the search
// loses falls back to the full schedule the same way.
//
// Instead of probing one prefix length at a time it expands the upcoming
// decision tree — the next midpoint, then both midpoints that could follow
// it, and so on — until it has up to parallel distinct lengths, probes them
// all concurrently, and then replays the sequential bisection over the
// collected results. Every probe is a self-contained deterministic run
// keyed only by its prefix length, so a speculated probe returns exactly
// what the sequential probe at that length would have: the committed search
// path, and therefore the result, is byte-identical at any parallel.
// Wrong-branch speculation costs only wasted work, never a different
// answer.
func bisectPrefix[R any](n, parallel int, full R, probe func(k int) (R, error), violated func(R) bool) (int, R, error) {
	if parallel < 1 {
		parallel = 1
	}
	lo, hi := 1, n // invariant: the prefix of length hi violates
	best := full
	for lo < hi {
		// Expand the decision tree breadth-first from the current (lo, hi)
		// until we have up to parallel distinct midpoints to probe.
		type span struct{ lo, hi int }
		frontier := []span{{lo, hi}}
		var mids []int
		seen := make(map[int]bool)
		for len(frontier) > 0 && len(mids) < parallel {
			s := frontier[0]
			frontier = frontier[1:]
			if s.lo >= s.hi {
				continue
			}
			mid := (s.lo + s.hi) / 2
			if !seen[mid] {
				seen[mid] = true
				mids = append(mids, mid)
			}
			frontier = append(frontier, span{s.lo, mid}, span{mid + 1, s.hi})
		}

		reports, err := runner.MapErr(len(mids), parallel, func(i int) (R, error) {
			return probe(mids[i])
		})
		if err != nil {
			return 0, full, err
		}
		byMid := make(map[int]R, len(mids))
		for i, mid := range mids {
			byMid[mid] = reports[i]
		}

		// Replay the sequential bisection over the probed results. The walk
		// stops when it needs a midpoint outside this round's speculation
		// (possible when the tree was cut mid-level); the next round resumes
		// from there.
		for lo < hi {
			mid := (lo + hi) / 2
			rep, ok := byMid[mid]
			if !ok {
				break
			}
			if violated(rep) {
				hi = mid
				best = rep
			} else {
				lo = mid + 1
			}
		}
	}
	return lo, best, nil
}
