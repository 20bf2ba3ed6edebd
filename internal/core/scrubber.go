package core

import (
	"errors"

	"ustore/internal/block"
	"ustore/internal/disk"
	"ustore/internal/obs"

	"time"
)

// RepairFunc fetches a known-good copy of a corrupted range so the scrubber
// can rewrite it — from a replica, EC parity reconstruction, or a service
// backup. done(data, true) supplies the bytes, which the scrubber copies
// before done returns (so a peer read's callback data can be passed straight
// through); done(nil, false) reports that no good copy exists (the block is
// counted as unrepairable).
type RepairFunc func(ex ExportArgs, off int64, length int, done func(data []byte, ok bool))

// ScrubStats summarizes a scrubber's work.
type ScrubStats struct {
	// Scanned counts verify-reads issued.
	Scanned int
	// Skipped counts ticks that found no eligible disk (spun down, busy,
	// powered off, or nothing exported) — scrubbing never wakes hardware.
	Skipped int
	// BadBlocks counts checksum mismatches detected.
	BadBlocks int
	// Repaired counts bad blocks rewritten from a good copy and re-verified.
	Repaired int
	// Unrepaired counts bad blocks with no good copy available.
	Unrepaired int
}

// Scrubber is the EndPoint's background media scrubber: every interval it
// verify-reads one checksum block of one exported space, advancing a cursor
// so the whole exported surface is eventually swept. It only touches disks
// that are attached, spinning, and idle with an empty queue, cooperating
// with the power manager instead of defeating it (a scrub IO on a spun-down
// disk would charge a full spin-up). Latent sector errors surface as
// block.ErrChecksum from the checksum volume; the scrubber then asks the
// repair hook for a good copy and rewrites the block in place.
type Scrubber struct {
	ep       *EndPoint
	interval time.Duration
	repair   RepairFunc

	// cursor: index into the sorted export list, and byte offset within
	// that space, advanced one checksum block per tick.
	spaceIdx int
	offset   int64

	stats ScrubStats
	// inFlight guards against overlapping sweeps when a verify-read plus
	// repair round-trip outlasts the tick interval.
	inFlight bool
	// scratch stages a repair's good copy for the rewrite (verify-reads
	// discard their bytes: the volume's CRC check is what they are for).
	// inFlight keeps the steps of a sweep strictly one at a time, so the
	// buffer is never in use twice.
	scratch []byte

	// Pre-resolved progress counters (nil-safe), resolved once at
	// construction instead of per scrub event.
	cScanned    *obs.Counter
	cBad        *obs.Counter
	cRepairs    *obs.Counter
	cUnrepaired *obs.Counter
}

// NewScrubber starts a scrubber on ep ticking every interval.
func NewScrubber(ep *EndPoint, interval time.Duration) *Scrubber {
	rec := ep.cfg.Recorder
	sc := &Scrubber{
		ep:          ep,
		interval:    interval,
		cScanned:    rec.Counter("core", "scrub_scanned_total"),
		cBad:        rec.Counter("core", "scrub_bad_blocks_total"),
		cRepairs:    rec.Counter("core", "scrub_repairs_total"),
		cUnrepaired: rec.Counter("core", "scrub_unrepaired_total"),
	}
	sc.arm()
	return sc
}

// SetRepairFunc installs the good-copy source used to fix bad blocks. With
// no repair func, detected corruption is only counted (Unrepaired).
func (sc *Scrubber) SetRepairFunc(fn RepairFunc) { sc.repair = fn }

// Stats returns a snapshot of the scrubber's counters.
func (sc *Scrubber) Stats() ScrubStats { return sc.stats }

func (sc *Scrubber) arm() {
	sc.ep.sched.FireAfter(sc.interval, func() {
		sc.step()
		sc.arm()
	})
}

// step performs one scrub tick: pick the cursor's space, and if its backing
// disk is eligible, verify-read one block.
func (sc *Scrubber) step() {
	if sc.inFlight || sc.ep.down {
		sc.stats.Skipped++
		return
	}
	spaces := sc.ep.exportedSpaces()
	if len(spaces) == 0 {
		sc.stats.Skipped++
		return
	}
	if sc.spaceIdx >= len(spaces) {
		sc.spaceIdx = 0
		sc.offset = 0
	}
	sp := spaces[sc.spaceIdx]
	ex := sc.ep.exports[sp]
	vol := sc.ep.volumes[sp]
	d := sc.ep.disks[ex.DiskID]
	if vol == nil || d == nil || !sc.ep.isAttached(ex.DiskID) ||
		d.State() != disk.StateIdle || d.QueueDepth() > 0 {
		// Not eligible right now (busy, spun down, or detached). Skip the
		// tick rather than wake or delay foreground IO; the cursor stays
		// put so the block isn't silently passed over.
		sc.stats.Skipped++
		return
	}

	off := sc.offset
	length := block.ChecksumBlockSize
	if rem := vol.Size() - off; int64(length) > rem {
		length = int(rem)
	}
	sc.advance(vol.Size())

	sc.inFlight = true
	sc.stats.Scanned++
	sc.cScanned.Inc()
	rec := sc.ep.cfg.Recorder
	vol.ReadInto(off, length, disk.Discard, func(_ []byte, err error) {
		if err == nil || !errors.Is(err, block.ErrChecksum) {
			// Clean block, or a non-checksum error (disk died mid-read);
			// either way there is nothing to repair.
			sc.inFlight = false
			return
		}
		sc.stats.BadBlocks++
		sc.cBad.Inc()
		rec.Instant("core", "scrub-corruption", sc.ep.host,
			obs.L("space", string(sp)), obs.L("disk", ex.DiskID))
		if sc.repair == nil {
			sc.stats.Unrepaired++
			sc.cUnrepaired.Inc()
			sc.inFlight = false
			return
		}
		span := rec.Begin("core", "scrub-repair", sc.ep.host, obs.L("space", string(sp)))
		sc.repair(ex, off, length, func(data []byte, ok bool) {
			if !ok || len(data) != length || sc.ep.down {
				sc.stats.Unrepaired++
				sc.cUnrepaired.Inc()
				span.End(obs.L("status", "no-good-copy"))
				sc.inFlight = false
				return
			}
			// The disk holds a write's payload until the IO completes, and
			// data is only valid until this callback returns (it may be a
			// peer read's wire frame): stage a copy.
			sc.scratch = append(sc.scratch[:0], data...)
			vol.WriteAt(off, sc.scratch, func(werr error) {
				if werr != nil {
					sc.stats.Unrepaired++
					sc.cUnrepaired.Inc()
					span.End(obs.L("status", "write-failed"))
					sc.inFlight = false
					return
				}
				// Re-read to prove the rewrite really cleared the error
				// (the write path recomputed the block CRC).
				vol.ReadInto(off, length, disk.Discard, func(_ []byte, rerr error) {
					if rerr == nil {
						sc.stats.Repaired++
						sc.cRepairs.Inc()
						span.End(obs.L("status", "ok"))
					} else {
						sc.stats.Unrepaired++
						sc.cUnrepaired.Inc()
						span.End(obs.L("status", "verify-failed"))
					}
					sc.inFlight = false
				})
			})
		})
	})
}

// advance moves the cursor one block forward within the current space, or on
// to the next space when the end is reached.
func (sc *Scrubber) advance(size int64) {
	sc.offset += int64(block.ChecksumBlockSize)
	if sc.offset >= size {
		sc.offset = 0
		sc.spaceIdx++
	}
}
