package policy

import (
	"cmp"
	"slices"

	"ustore/internal/simtime"
)

// AutoScalerConfig bounds the spin-up-aware autoscaler's decisions.
type AutoScalerConfig struct {
	// MinSpinning is the floor of spinning disks (the always-on active
	// set); the scaler never spins below it.
	MinSpinning int
	// MaxSpinning is the power budget's ceiling on simultaneously
	// spinning (or spinning-up) disks — the paper's whole premise is that
	// only a fraction of disks draw power at once.
	MaxSpinning int
	// MaxSpinningUp caps concurrent spin-ups (inrush current, §III-B
	// rolling spin-up).
	MaxSpinningUp int
	// IdleAfter is how long a scaler-managed disk must sit demand-free
	// before it is spun back down.
	IdleAfter simtime.Time
}

// DiskState is one disk's input row to Plan.
type DiskState struct {
	// Name identifies the disk (decision output uses it).
	Name string
	// Spinning is true while the disk is spun up or spinning up.
	Spinning bool
	// SpinningUp is true during the spin-up transient only.
	SpinningUp bool
	// Demand is the queued + in-flight request count targeting the disk.
	Demand int
	// ScaleDownCandidate marks disks the scaler may spin down (the ones
	// it spun up itself; the baseline active set stays up).
	ScaleDownCandidate bool
	// IdleSince is when the disk's demand last went to zero (only
	// meaningful for candidates with Demand == 0).
	IdleSince simtime.Time
}

// AutoScaler turns queue pressure into spin-up/spin-down decisions. It is
// a pure planner: Plan inspects a snapshot and names disks; the caller
// owns the actual power commands and readiness flips. Inputs are sorted
// by name internally, so map-ordered callers still get deterministic
// plans.
type AutoScaler struct {
	cfg AutoScalerConfig
	// sorted and cold are Plan's working copies, reused across calls.
	sorted, cold []DiskState
}

// NewAutoScaler validates and wraps the config.
func NewAutoScaler(cfg AutoScalerConfig) *AutoScaler {
	if cfg.MaxSpinningUp <= 0 {
		cfg.MaxSpinningUp = 1
	}
	return &AutoScaler{cfg: cfg}
}

// Plan returns the disks to spin up and down right now. Spin-ups go to
// cold disks with pending demand, highest demand first (name-ordered on
// ties), respecting both the MaxSpinning power budget and the
// MaxSpinningUp inrush cap. Spin-downs take candidates that have sat
// demand-free past IdleAfter, provided the floor holds.
func (as *AutoScaler) Plan(now simtime.Time, disks []DiskState) (spinUp, spinDown []string) {
	sorted := append(as.sorted[:0], disks...)
	slices.SortFunc(sorted, func(a, b DiskState) int { return cmp.Compare(a.Name, b.Name) })
	as.sorted = sorted

	spinning, up := 0, 0
	for _, d := range sorted {
		if d.Spinning {
			spinning++
		}
		if d.SpinningUp {
			up++
		}
	}

	// Scale up: cold disks with demand, heaviest backlog first.
	cold := as.cold[:0]
	for _, d := range sorted {
		if !d.Spinning && d.Demand > 0 {
			cold = append(cold, d)
		}
	}
	slices.SortStableFunc(cold, func(a, b DiskState) int { return cmp.Compare(b.Demand, a.Demand) })
	as.cold = cold
	for _, d := range cold {
		if spinning >= as.cfg.MaxSpinning || up >= as.cfg.MaxSpinningUp {
			break
		}
		spinUp = append(spinUp, d.Name)
		spinning++
		up++
	}

	// Scale down: idle managed disks, but never below the floor and never
	// a disk still spinning up.
	for _, d := range sorted {
		if !d.Spinning || d.SpinningUp || !d.ScaleDownCandidate || d.Demand > 0 {
			continue
		}
		if as.cfg.IdleAfter > 0 && now-d.IdleSince < as.cfg.IdleAfter {
			continue
		}
		if spinning <= as.cfg.MinSpinning {
			break
		}
		spinDown = append(spinDown, d.Name)
		spinning--
	}
	return spinUp, spinDown
}
