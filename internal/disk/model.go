// Package disk models the mechanical hard disks UStore attaches through its
// USB fat-tree fabric.
//
// The performance model is a per-IO service-time model:
//
//	service = command overhead(interconnect, direction)
//	        + positioning(pattern, direction, size class)
//	        + size / media sequential rate
//	        + direction-turnaround penalty (mixed workloads)
//
// The default parameters are calibrated against Table II of the UStore paper
// (TOSHIBA DT01ACA300 3TB 7200rpm measured over SATA, a USB 3.0 bridge, and
// the full hub+switch fabric). Positioning times are *effective* values that
// fold in NCQ/elevator gains at the queue depths Iometer used, which is why
// the small-transfer random positioning is shorter than a raw seek+rotate.
// Power states and wattages are calibrated against Table III.
package disk

import (
	"fmt"
	"time"
)

// Interconnect identifies how the disk is attached to its host. It selects
// the per-command overhead of the attachment path.
type Interconnect int

const (
	// AttachSATA is a direct SATA connection (the paper's baseline).
	AttachSATA Interconnect = iota
	// AttachUSB is a single SATA-to-USB 3.0 bridge, no hubs.
	AttachUSB
	// AttachFabric is the full UStore path: bridge + switches + hubs
	// ("H&S" in the paper's Table II).
	AttachFabric
)

// String returns the paper's name for the interconnect.
func (ic Interconnect) String() string {
	switch ic {
	case AttachSATA:
		return "SATA"
	case AttachUSB:
		return "USB"
	case AttachFabric:
		return "H&S"
	default:
		return fmt.Sprintf("Interconnect(%d)", int(ic))
	}
}

// Pattern is the access pattern of a workload.
type Pattern int

const (
	// Sequential addresses advance monotonically.
	Sequential Pattern = iota
	// Random addresses are uniformly distributed over the disk.
	Random
)

// Op describes one IO for service-time purposes.
type Op struct {
	Read    bool
	Size    int // bytes
	Pattern Pattern
	// DirectionSwitch is set by the queue when this op's direction differs
	// from the previous op's (mixed read/write workloads pay a turnaround
	// penalty for it).
	DirectionSwitch bool
}

// Params are the calibrated performance and power parameters of a disk
// model. All durations are per IO.
type Params struct {
	// ModelName labels the disk (informational).
	ModelName string
	// CapacityBytes is the raw capacity.
	CapacityBytes int64
	// MediaRate is the sustained media transfer rate in bytes/sec.
	MediaRate float64
	// CmdOverheadRead/Write is the fixed per-command overhead of the
	// attachment path, indexed by Interconnect.
	CmdOverheadRead  [3]time.Duration
	CmdOverheadWrite [3]time.Duration
	// Turnaround is the extra cost paid when consecutive ops change
	// direction (read->write or write->read), indexed by Interconnect.
	Turnaround [3]time.Duration
	// TurnaroundLarge replaces Turnaround for transfers above
	// SmallIOThreshold: alternating large reads and writes defeats
	// read-ahead and forces write-cache flushes, which Table II shows as
	// 4MB mixed-sequential throughput collapsing to ~105-120 MB/s.
	TurnaroundLarge [3]time.Duration
	// RandPos{Small,Large}{Read,Write} are effective positioning times for
	// random IO; Small applies at or below SmallIOThreshold.
	RandPosSmallRead  time.Duration
	RandPosSmallWrite time.Duration
	RandPosLargeRead  time.Duration
	RandPosLargeWrite time.Duration
	SmallIOThreshold  int

	// SpinUpTime is how long a spun-down disk takes to become ready.
	SpinUpTime time.Duration
	// SpinDownTime is how long the spin-down command takes to complete.
	SpinDownTime time.Duration

	// Power draw (watts) of the bare disk by state (Table III "SATA" row:
	// the bridge's own draw is accounted separately by the power package).
	PowerSpunDown float64
	PowerIdle     float64
	PowerActive   float64
	// PowerSpinUp is the surge draw while spinning up (motor start).
	PowerSpinUp float64
}

// DT01ACA300 returns parameters calibrated to the paper's TOSHIBA
// DT01ACA300 3TB 7200rpm disk (Tables II and III).
func DT01ACA300() Params {
	return Params{
		ModelName:     "TOSHIBA DT01ACA300",
		CapacityBytes: 3_000_000_000_000,
		MediaRate:     185.5e6,
		// 4KB sequential (Table II): SATA 13378/11211 IO/s read/write,
		// USB 5380/6166, H&S 5381/6181. service = ovh + 4096/MediaRate
		// (22.1us) => overheads below.
		CmdOverheadRead:  [3]time.Duration{53 * time.Microsecond, 164 * time.Microsecond, 164 * time.Microsecond},
		CmdOverheadWrite: [3]time.Duration{67 * time.Microsecond, 140 * time.Microsecond, 140 * time.Microsecond},
		// 4KB 50%-mixed sequential: SATA 8066 IO/s, USB 4294, H&S 4595.
		// Every op in an alternating 50/50 stream switches direction.
		Turnaround: [3]time.Duration{42 * time.Microsecond, 59 * time.Microsecond, 48 * time.Microsecond},
		// 4MB 50%-mixed sequential (Table II): SATA 105.7 MB/s, USB 119.7,
		// H&S 118.6 => per-op turnaround beyond the 22.6ms media transfer.
		// (The paper's own data has USB beating SATA here.)
		TurnaroundLarge: [3]time.Duration{17 * time.Millisecond, 12200 * time.Microsecond, 12600 * time.Microsecond},
		// 4KB random: ~190 IO/s read => 5.2ms effective positioning
		// (NCQ-assisted), ~86 IO/s write => 11.5ms.
		RandPosSmallRead:  5200 * time.Microsecond,
		RandPosSmallWrite: 11500 * time.Microsecond,
		// 4MB random: read ~130-148 MB/s => ~7.5ms positioning; write
		// 57-79 MB/s => ~36ms (write-cache-hostile large randoms).
		RandPosLargeRead:  7500 * time.Microsecond,
		RandPosLargeWrite: 36 * time.Millisecond,
		SmallIOThreshold:  256 * 1024,

		SpinUpTime:   7 * time.Second,
		SpinDownTime: 1500 * time.Millisecond,

		PowerSpunDown: 0.05,
		PowerIdle:     4.71,
		PowerActive:   6.66,
		PowerSpinUp:   24.0,
	}
}

// SpecSheet returns the official specification wattages from the Toshiba
// datasheet (Table III "Specs" row), for the power comparison bench.
func SpecSheet() (spunDown, idle, active float64) { return 1.0, 5.2, 6.4 }

// ServiceTime returns the time the disk mechanism needs to complete op when
// attached via ic. It does not include host-side queueing or fabric
// bandwidth contention — those are modelled by the usb package.
func (p Params) ServiceTime(ic Interconnect, op Op) time.Duration {
	if op.Size <= 0 {
		panic(fmt.Sprintf("disk: non-positive IO size %d", op.Size))
	}
	var d time.Duration
	if op.Read {
		d = p.CmdOverheadRead[ic]
	} else {
		d = p.CmdOverheadWrite[ic]
	}
	if op.DirectionSwitch {
		if op.Size > p.SmallIOThreshold {
			d += p.TurnaroundLarge[ic]
		} else {
			d += p.Turnaround[ic]
		}
	}
	if op.Pattern == Random {
		small := op.Size <= p.SmallIOThreshold
		switch {
		case small && op.Read:
			d += p.RandPosSmallRead
		case small && !op.Read:
			d += p.RandPosSmallWrite
		case !small && op.Read:
			d += p.RandPosLargeRead
		default:
			d += p.RandPosLargeWrite
		}
	}
	d += time.Duration(float64(op.Size) / p.MediaRate * float64(time.Second))
	return d
}

// Power returns the disk's draw in watts for the given state.
func (p Params) Power(st State) float64 {
	switch st {
	case StateSpunDown, StatePoweredOff:
		if st == StatePoweredOff {
			return 0
		}
		return p.PowerSpunDown
	case StateSpinningUp:
		return p.PowerSpinUp
	case StateIdle:
		return p.PowerIdle
	case StateActive:
		return p.PowerActive
	default:
		return 0
	}
}
