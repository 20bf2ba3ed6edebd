package core

import (
	"time"

	"ustore/internal/disk"
	"ustore/internal/obs"
)

// PowerManager implements §IV-F's default power-saving policy on one host:
// a disk idle longer than the threshold is spun down; if a disk spins up
// and down too frequently, the threshold is raised (doubled, up to a cap)
// to stop thrashing. Upper-layer services with better workload knowledge
// use the Master's DiskPower API instead.
type PowerManager struct {
	ep *EndPoint

	// initial is the configured idle threshold; per-disk thresholds adapt
	// upward from it.
	initial time.Duration
	// threshold holds the adapted per-disk idle threshold.
	threshold map[string]time.Duration
	// spinUpsAt records recent spin-up times per disk for thrash
	// detection.
	spinUpsAt map[string][]time.Duration

	// SpinDowns counts spin-downs issued (ablation metric).
	SpinDowns uint64
}

// Thrash policy: more than thrashCount spin-ups within thrashWindow doubles
// the disk's idle threshold, up to maxThresholdFactor times the initial.
const (
	thrashWindow       = 10 * time.Minute
	thrashCount        = 3
	maxThresholdFactor = 16
	pmScanInterval     = 1 * time.Second
)

// NewPowerManager starts the policy loop for ep with the given initial
// idle threshold.
func NewPowerManager(ep *EndPoint, idle time.Duration) *PowerManager {
	pm := &PowerManager{
		ep:        ep,
		initial:   idle,
		threshold: make(map[string]time.Duration),
		spinUpsAt: make(map[string][]time.Duration),
	}
	pm.loop()
	return pm
}

// Threshold returns a disk's current adapted idle threshold.
func (pm *PowerManager) Threshold(diskID string) time.Duration {
	if t, ok := pm.threshold[diskID]; ok {
		return t
	}
	return pm.initial
}

func (pm *PowerManager) loop() {
	pm.ep.sched.FireAfter(pmScanInterval, func() {
		if !pm.ep.down {
			pm.scan()
		}
		pm.loop()
	})
}

func (pm *PowerManager) scan() {
	now := pm.ep.sched.Now()
	for _, id := range pm.ep.attached {
		d := pm.ep.disks[id]
		if d == nil {
			continue
		}
		pm.noteSpinUps(id, d)
		since, idle := d.IdleSince()
		if !idle {
			continue
		}
		if now-since >= pm.Threshold(id) {
			d.SpinDown()
			if d.State() == disk.StateSpunDown {
				pm.SpinDowns++
				rec := pm.ep.cfg.Recorder
				rec.Counter("core", "spindowns_total").Inc()
				rec.Instant("core", "spin-down", pm.ep.host,
					obs.L("disk", id), obs.L("idle", (now-since).String()))
			}
		}
	}
}

// noteSpinUps tracks the disk's spin-up counter and adapts the threshold
// when it thrashes ("if it is detected that the disk is spun up and down
// too frequently, the host will increase the time interval", §IV-F).
func (pm *PowerManager) noteSpinUps(id string, d *disk.Disk) {
	ups := pm.spinUpsAt[id]
	total := d.SpinUpCount()
	for len(ups) < total {
		ups = append(ups, pm.ep.sched.Now())
	}
	// Drop events outside the window.
	cut := 0
	for cut < len(ups) && pm.ep.sched.Now()-ups[cut] > thrashWindow {
		cut++
	}
	ups = ups[cut:]
	pm.spinUpsAt[id] = ups
	if len(ups) > thrashCount {
		cur := pm.Threshold(id)
		next := cur * 2
		if next > pm.initial*maxThresholdFactor {
			next = pm.initial * maxThresholdFactor
		}
		if next != cur {
			pm.threshold[id] = next
			rec := pm.ep.cfg.Recorder
			rec.Counter("core", "threshold_raises_total").Inc()
			rec.Instant("core", "idle-threshold-raised", pm.ep.host,
				obs.L("disk", id), obs.L("threshold", next.String()))
		}
	}
}
