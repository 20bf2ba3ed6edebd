package core

import (
	"fmt"
	"sort"
	"time"

	"ustore/internal/disk"
	"ustore/internal/obs"
	"ustore/internal/simtime"
)

// Gray-failure detection (fail-slow, not fail-stop). Each heartbeat carries
// the EndPoint's per-disk HealthStats; the active master compares every
// disk's tail-latency EWMA against the cohort median. A disk whose tail
// diverges — or whose windowed error rate spikes — is scored gray and walked
// through a quarantine state machine: new allocations stop landing on it,
// its spaces get proactively migrated, and it is released only after a
// sustained streak of clean scores. Peer comparison is what makes this
// robust: an absolute threshold would trip on a legitimately busy cluster,
// while a gray disk stands out from its cohort under any load.

// DiskHealthState is the master's per-disk gray-failure verdict.
type DiskHealthState string

// Quarantine state machine states.
const (
	// HealthGood: scoring clean; allocations allowed.
	HealthGood DiskHealthState = "healthy"
	// HealthSuspect: gray-scoring, but not yet long enough to act on
	// (absorbs one-off latency spikes); allocations still allowed.
	HealthSuspect DiskHealthState = "suspect"
	// HealthQuarantined: sustained gray; excluded from allocation and
	// drained. Left only via a clean score (-> probation).
	HealthQuarantined DiskHealthState = "quarantined"
	// HealthProbation: recovering; still excluded from allocation until the
	// clean streak completes.
	HealthProbation DiskHealthState = "probation"
)

// quarantineTailFloor is the absolute tail-latency EWMA below which a disk is
// never scored gray, whatever the cohort looks like: on an idle cluster the
// median is microseconds and harmless jitter would otherwise trip the
// relative test.
const quarantineTailFloor = 40 * time.Millisecond

// healthMinIOs is the minimum lifetime IO count before a disk's EWMAs are
// trusted for scoring (fresh disks have meaningless averages).
const healthMinIOs = 8

// diskHealth is the master's record for one disk.
type diskHealth struct {
	state      DiskHealthState
	last       disk.HealthStats // newest heartbeat sample
	scored     disk.HealthStats // sample at the previous scoring pass
	grayBeats  int              // consecutive gray-scoring passes
	cleanBeats int              // consecutive clean passes (quarantine exit)
	since      simtime.Time     // when the current state was entered
}

// Quarantine thresholds: a disk is gray when its tail-latency EWMA sits
// quarantineTailFactor times above the cohort median; quarantineSuspectBeats
// consecutive gray-scoring heartbeats promote Suspect to Quarantined, and
// quarantineProbationBeats consecutive clean ones release it.
const (
	quarantineTailFactor     = 3
	quarantineSuspectBeats   = 3
	quarantineProbationBeats = 6
)

// healthTracker holds the active master's gray-disk state. Like SysStat it
// is in-memory only: after master failover the new active replica rebuilds
// its view from heartbeats, and a still-gray disk re-earns quarantine within
// a few scoring passes.
type healthTracker struct {
	disks map[string]*diskHealth

	cQuarantines *obs.Counter
	cReleases    *obs.Counter
	gGray        *obs.Gauge

	// violations records quarantine-invariant breaches (an allocation
	// placed on a quarantined disk); ValidateQuarantine reports them.
	violations []string
}

func newHealthTracker(rec *obs.Recorder) *healthTracker {
	return &healthTracker{
		disks:        make(map[string]*diskHealth),
		cQuarantines: rec.Counter("core", "health_quarantines_total"),
		cReleases:    rec.Counter("core", "health_releases_total"),
		gGray:        rec.Gauge("core", "health_gray_disks"),
	}
}

// observe ingests one disk's heartbeat sample.
func (t *healthTracker) observe(diskID string, h disk.HealthStats) {
	dh := t.disks[diskID]
	if dh == nil {
		dh = &diskHealth{state: HealthGood}
		t.disks[diskID] = dh
	}
	dh.last = h
}

// excluded reports whether a disk must not receive new allocations.
func (t *healthTracker) excluded(diskID string) bool {
	dh := t.disks[diskID]
	return dh != nil && (dh.state == HealthQuarantined || dh.state == HealthProbation)
}

// gray scores one disk against the cohort median tail.
func (dh *diskHealth) gray(median time.Duration, factor float64) bool {
	h := dh.last
	if h.IOs < healthMinIOs {
		return false
	}
	if h.TailEWMA > quarantineTailFloor && median > 0 &&
		float64(h.TailEWMA) > factor*float64(median) {
		return true
	}
	// Windowed error rate: >=10% of the IOs since the last scoring pass
	// failed (with a minimum window so one unlucky IO doesn't count).
	dIOs := h.IOs - dh.scored.IOs
	dErrs := h.Errors - dh.scored.Errors
	return dIOs >= 4 && dErrs*10 >= dIOs
}

// scorePass runs one scoring round over the online disks. onlineDisk filters
// to disks currently attached to an online host; quarantine/release
// transitions fire the callbacks.
func (m *Master) scorePass() {
	if !m.cfg.HealthQuarantine {
		return
	}
	t := m.health
	ids := make([]string, 0, len(t.disks))
	var tails []time.Duration
	for id, dh := range t.disks {
		host, ok := m.diskHost[id]
		if !ok {
			continue
		}
		if hs := m.hosts[host]; hs == nil || !hs.online {
			continue
		}
		ids = append(ids, id)
		if dh.last.IOs >= healthMinIOs {
			tails = append(tails, dh.last.TailEWMA)
		}
	}
	sort.Strings(ids)
	var median time.Duration
	if len(tails) > 0 {
		sort.Slice(tails, func(i, j int) bool { return tails[i] < tails[j] })
		median = tails[len(tails)/2]
	}
	grayCount := 0
	for _, id := range ids {
		dh := t.disks[id]
		isGray := dh.gray(median, quarantineTailFactor)
		dh.scored = dh.last
		if isGray {
			grayCount++
		}
		m.stepHealth(id, dh, isGray)
	}
	t.gGray.Set(float64(grayCount))
}

// stepHealth advances one disk's quarantine state machine by one beat.
func (m *Master) stepHealth(id string, dh *diskHealth, gray bool) {
	prev := dh.state
	switch dh.state {
	case HealthGood:
		if gray {
			dh.state = HealthSuspect
			dh.grayBeats = 1
		}
	case HealthSuspect:
		if !gray {
			dh.state = HealthGood
			dh.grayBeats = 0
		} else if dh.grayBeats++; dh.grayBeats >= quarantineSuspectBeats {
			dh.state = HealthQuarantined
			dh.cleanBeats = 0
		}
	case HealthQuarantined:
		if !gray {
			dh.state = HealthProbation
			dh.cleanBeats = 1
		}
	case HealthProbation:
		if gray {
			dh.state = HealthQuarantined
			dh.cleanBeats = 0
		} else if dh.cleanBeats++; dh.cleanBeats >= quarantineProbationBeats {
			dh.state = HealthGood
			dh.grayBeats = 0
		}
	}
	if dh.state == prev {
		return
	}
	dh.since = m.sched.Now()
	rec := m.cfg.Recorder
	switch {
	case dh.state == HealthQuarantined && prev == HealthSuspect:
		m.health.cQuarantines.Inc()
		rec.Instant("core", "disk-quarantined", "master",
			obs.L("disk", id), obs.L("tail", dh.last.TailEWMA.String()))
		if m.OnDiskQuarantined != nil {
			m.OnDiskQuarantined(id, m.diskHost[id])
		}
	case dh.state == HealthGood && prev == HealthProbation:
		m.health.cReleases.Inc()
		rec.Instant("core", "disk-released", "master", obs.L("disk", id))
		if m.OnDiskReleased != nil {
			m.OnDiskReleased(id)
		}
	}
}

// DiskHealthState returns the master's verdict for a disk (HealthGood for
// disks it has never scored).
func (m *Master) DiskHealthState(diskID string) DiskHealthState {
	if dh := m.health.disks[diskID]; dh != nil {
		return dh.state
	}
	return HealthGood
}

// ValidateQuarantine checks the quarantine invariant: no allocation was ever
// placed on a disk that was quarantined at allocation time. The chaos
// harness asserts it holds; mutants_test.go shows it trips when the
// allocator stops skipping quarantined disks.
func (m *Master) ValidateQuarantine() error {
	if n := len(m.health.violations); n > 0 {
		return fmt.Errorf("core: %d allocation(s) on quarantined disks (first: %s)",
			n, m.health.violations[0])
	}
	return nil
}
