package disk

import (
	"errors"
	"fmt"
	"time"

	"ustore/internal/obs"
	"ustore/internal/simtime"
)

// State is the power/availability state of a disk.
type State int

const (
	// StatePoweredOff means the 12V rail is cut (fabric power relay open).
	StatePoweredOff State = iota
	// StateSpunDown means powered but platters stopped.
	StateSpunDown
	// StateSpinningUp means the motor is starting; IO waits.
	StateSpinningUp
	// StateIdle means ready with no IO in progress.
	StateIdle
	// StateActive means an IO is being serviced.
	StateActive
)

// String returns a short state label.
func (s State) String() string {
	switch s {
	case StatePoweredOff:
		return "off"
	case StateSpunDown:
		return "spun-down"
	case StateSpinningUp:
		return "spinning-up"
	case StateIdle:
		return "idle"
	case StateActive:
		return "active"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Errors returned by Disk operations.
var (
	// ErrPoweredOff is returned for IO submitted to a disk with no power.
	ErrPoweredOff = errors.New("disk: powered off")
	// ErrOutOfRange is returned for IO beyond the disk capacity.
	ErrOutOfRange = errors.New("disk: offset+size out of range")
	// ErrIO is a transient medium/controller error (Gray & van Ingen's
	// "controller stall" class): the command was accepted, service time was
	// paid, and the completion reports failure. Retrying may succeed.
	ErrIO = errors.New("disk: I/O error")
)

// DegradeParams describes a fail-slow (gray) regime for the disk mechanism:
// the drive still answers, but slower and less reliably. Zero values mean
// "no effect" for each dimension, so partial degradations compose naturally.
type DegradeParams struct {
	// ServiceFactor multiplies the calibrated service time (values < 1 are
	// treated as 1 — degradation never speeds a disk up).
	ServiceFactor float64
	// ExtraLatency is a fixed per-IO addition (firmware retries, repeated
	// seeks on a marginal head).
	ExtraLatency time.Duration
	// BandwidthCap caps the media transfer rate in bytes/sec (0 = uncapped).
	// Only the transfer portion of the service time inflates.
	BandwidthCap float64
	// IOErrorRate is the per-IO probability of an ErrIO completion after
	// full service time — intermittent EIO bursts per the measured SATA
	// error rates. Zero consumes no RNG.
	IOErrorRate float64
}

// HealthStats is the SMART-style health block an EndPoint samples and ships
// in heartbeats. EWMAs are maintained at IO completion on the disk itself so
// the numbers reflect what the mechanism actually delivered, queueing
// excluded — exactly what peer comparison across a cohort needs.
type HealthStats struct {
	// ServiceEWMA tracks mean per-IO service time (alpha 0.2).
	ServiceEWMA time.Duration
	// TailEWMA is peak-biased: it jumps toward slow IOs quickly and decays
	// slowly, approximating a rolling high percentile without a window.
	TailEWMA time.Duration
	// IOs and Errors are lifetime completion/ErrIO counters; the detector
	// works on deltas between heartbeats.
	IOs    uint64
	Errors uint64
}

// ReadDest supplies the buffer a read's bytes are copied into. The disk asks
// for it when it services the read, not when the read is queued, so a deep
// queue of large reads holds no payload memory while it waits. A ReadDest
// that is also a LendDest is lent the bytes instead when the read's shape
// allows it.
type ReadDest interface {
	// ReadBuffer returns a buffer of exactly size bytes. Its contents on
	// return do not matter: the disk overwrites all of it.
	ReadBuffer(size int) []byte
}

// LendDest is a ReadDest that accepts a loan of the store's own bytes. A read
// that lies inside one store chunk is not copied: at service time the disk
// calls Lend with the lease on the chunk's bytes, and Done receives the lent
// bytes themselves. They never change while the lease is held; the
// destination releases it once nothing reads them any more. Any other read
// (one that spans chunks) still asks ReadBuffer for a buffer to copy into.
type LendDest interface {
	ReadDest
	// Lend takes the lease on the bytes Done is about to receive. A nil
	// lease (a hole's zeros) needs no release.
	Lend(lease *Lease)
}

// Discard is the destination of a read whose caller only times it: the disk
// queues, times, counts and URE-draws it as any read but fills no bytes, and
// Done gets nil data. Its ReadBuffer (a nil embedded interface's) never runs.
var Discard ReadDest = discardDest{}

type discardDest struct{ ReadDest }

// Request is a queued IO with its completion callback.
type Request struct {
	Op     Op
	Offset int64
	// Data is written for writes; for reads the completion receives the
	// bytes read.
	Data []byte
	// Dest, for reads, supplies the buffer the bytes are read into and Done
	// then receives, or takes a loan of the store's bytes (LendDest). Nil
	// means a fresh buffer per read; Discard means none.
	Dest ReadDest
	// Done is invoked on completion with the data read (nil for writes)
	// and an error.
	Done func(data []byte, err error)
}

// Disk is an event-driven simulated hard disk. All methods must be called
// from the scheduler goroutine. A Disk services one request at a time in
// FIFO order; NCQ effects are folded into the calibrated service times.
type Disk struct {
	id     string
	params Params
	ic     Interconnect
	sched  *simtime.Scheduler
	store  *Store

	state      State
	queue      []*Request
	lastRead   bool // direction of the previous op, for turnaround modelling
	hadOp      bool
	lastActive simtime.Time
	spinUps    int

	// serving is the record of the IO in service (queue[0]) while the disk
	// is active, nil otherwise; services recycles the records.
	serving  *service
	services simtime.FreeList[service]

	// completed, bytesRead and busy count finished IOs, bytes read and
	// time spent servicing IO.
	completed uint64
	bytesRead uint64
	busy      time.Duration

	// stateObservers are notified of every state transition (power meter,
	// rolling spin-up sequencer, ...).
	stateObservers []func(old, new State)

	// Observability handles (all nil-safe; SetRecorder fills them in).
	rec       *obs.Recorder
	mIORead   *obs.Histogram
	mIOWrite  *obs.Histogram
	cSwitches *obs.Counter
	cSpinUps  *obs.Counter
	cCorrupt  *obs.Counter
	// cTransitions holds one pre-resolved power_transitions_total handle per
	// state, indexed by State, so setState never rebuilds a label key.
	cTransitions [StateActive + 1]*obs.Counter

	// Silent-corruption model (Gray & van Ingen: uncorrectable read errors
	// and latent sector errors dominate on low-cost SATA media).
	ureRate      float64 // per-sector probability of corruption on read
	latentErrors int     // sectors corrupted on this medium

	// Gray-failure model. degr is the media/mechanism regime (DiskDegrade
	// faults); linkCapBps/linkExtra is a separate transport regime
	// (LinkDowngrade renegotiations) so the two compose when their fault
	// windows overlap instead of clobbering each other.
	degr       DegradeParams
	degraded   bool
	linkCapBps float64
	linkExtra  time.Duration

	health HealthStats
	cIOErr *obs.Counter
}

// SectorSize is the granularity of the corruption model: URE draws are per
// sector read, and CorruptSector damages one sector at a time.
const SectorSize = 4096

// New creates a disk in the spun-down state (as after rack power-on, before
// rolling spin-up).
func New(sched *simtime.Scheduler, id string, params Params, ic Interconnect) *Disk {
	return &Disk{
		id:     id,
		params: params,
		ic:     ic,
		sched:  sched,
		store:  NewStore(),
		state:  StateSpunDown,
	}
}

// ID returns the disk's identifier.
func (d *Disk) ID() string { return d.id }

// Params returns the disk's calibrated parameters.
func (d *Disk) Params() Params { return d.params }

// State returns the current state.
func (d *Disk) State() State { return d.state }

// Capacity returns the raw capacity in bytes.
func (d *Disk) Capacity() int64 { return d.params.CapacityBytes }

// Store exposes the disk's backing byte store (for direct inspection in
// tests; normal IO goes through Submit).
func (d *Disk) Store() *Store { return d.store }

// SetInterconnect changes the attachment path (used when a disk is switched
// between hosts or between SATA/USB in calibration benches).
func (d *Disk) SetInterconnect(ic Interconnect) { d.ic = ic }

// SetRecorder points the disk's instrumentation at a run Recorder. IO
// service times land in the disk_io_seconds histogram (labelled by op),
// direction switches, spin-ups and corrupted sectors in counters, and
// power transitions / IO spans in the trace on the disk's own track.
// A nil Recorder (the default) records nothing.
func (d *Disk) SetRecorder(rec *obs.Recorder) {
	d.rec = rec
	d.mIORead = rec.Histogram("disk", "io_seconds", obs.L("op", "read"))
	d.mIOWrite = rec.Histogram("disk", "io_seconds", obs.L("op", "write"))
	d.cSwitches = rec.Counter("disk", "direction_switches_total")
	d.cSpinUps = rec.Counter("disk", "spinups_total")
	d.cCorrupt = rec.Counter("disk", "corrupt_sectors_total")
	d.cIOErr = rec.Counter("disk", "io_errors_total")
	for s := StatePoweredOff; s <= StateActive; s++ {
		d.cTransitions[s] = rec.Counter("disk", "power_transitions_total", obs.L("to", s.String()))
	}
}

// OnStateChange adds a state transition observer. Observers fire in
// registration order.
func (d *Disk) OnStateChange(fn func(old, new State)) {
	d.stateObservers = append(d.stateObservers, fn)
}

// IdleSince returns the time of the last IO completion, and whether the disk
// has been idle with an empty queue since then.
func (d *Disk) IdleSince() (simtime.Time, bool) {
	return d.lastActive, d.state == StateIdle && len(d.queue) == 0
}

// SpinUpCount returns how many times the disk has spun up (PARAID-style
// wear accounting used by the adaptive power manager).
func (d *Disk) SpinUpCount() int { return d.spinUps }

// QueueDepth returns the number of requests waiting or in service.
func (d *Disk) QueueDepth() int { return len(d.queue) }

func (d *Disk) setState(s State) {
	if s == d.state {
		return
	}
	old := d.state
	d.state = s
	d.cTransitions[s].Inc()
	if d.rec != nil {
		d.rec.Instant("disk", "state:"+s.String(), d.id, obs.L("from", old.String()))
	}
	for _, fn := range d.stateObservers {
		fn(old, s)
	}
}

// PowerOn restores power. The disk lands in the spun-down state.
func (d *Disk) PowerOn() {
	if d.state == StatePoweredOff {
		d.setState(StateSpunDown)
	}
}

// PowerOff cuts power immediately. Queued requests fail with ErrPoweredOff.
func (d *Disk) PowerOff() {
	d.serving = nil
	d.failQueue(ErrPoweredOff)
	d.setState(StatePoweredOff)
}

// SpinDown stops the platters once the queue drains. If IO is in flight the
// spin-down happens after it completes (and any queued IO will spin the disk
// back up). Calling it on an off/spun-down disk is a no-op.
func (d *Disk) SpinDown() {
	if d.state == StateIdle && len(d.queue) == 0 {
		d.setState(StateSpunDown)
	}
}

// SpinUp starts the platters if spun down. Ready after Params.SpinUpTime.
func (d *Disk) SpinUp() {
	if d.state != StateSpunDown {
		return
	}
	d.setState(StateSpinningUp)
	d.spinUps++
	d.cSpinUps.Inc()
	sp := d.rec.Begin("disk", "spin-up", d.id)
	d.sched.FireAfter(d.params.SpinUpTime, func() {
		if d.state != StateSpinningUp {
			sp.End(obs.L("aborted", "power-off"))
			return // powered off mid-spin-up
		}
		sp.End()
		d.setState(StateIdle)
		d.lastActive = d.sched.Now()
		d.pump()
	})
}

func (d *Disk) failQueue(err error) {
	q := d.queue
	d.queue = nil
	for _, r := range q {
		d.sched.FireAfter(0, func() {
			if r.Done != nil {
				r.Done(nil, err)
			}
		})
	}
}

// Submit enqueues an IO. The Done callback fires on the scheduler goroutine
// when the IO completes or fails. A spun-down disk spins up automatically
// (cold-data access pattern: the access itself is the spin-up trigger).
func (d *Disk) Submit(req *Request) {
	if d.state == StatePoweredOff {
		d.sched.FireAfter(0, func() {
			if req.Done != nil {
				req.Done(nil, ErrPoweredOff)
			}
		})
		return
	}
	if req.Offset < 0 || req.Offset+int64(req.Op.Size) > d.params.CapacityBytes {
		d.sched.FireAfter(0, func() {
			if req.Done != nil {
				req.Done(nil, fmt.Errorf("%w: offset %d size %d capacity %d",
					ErrOutOfRange, req.Offset, req.Op.Size, d.params.CapacityBytes))
			}
		})
		return
	}
	d.queue = append(d.queue, req)
	switch d.state {
	case StateSpunDown:
		d.SpinUp()
	case StateIdle:
		d.pump()
	}
}

// SetURERate sets the per-sector probability that a read surfaces an
// uncorrectable (silently corrupted) sector. Zero (the default) disables
// the model entirely and consumes no RNG, so existing runs are unchanged.
// Typical consumer SATA spec is one URE per 1e14 bits ≈ 3e-4 per 4KiB
// sector-terabyte; chaos runs compress this the same way they compress MTTF.
func (d *Disk) SetURERate(p float64) { d.ureRate = p }

// CorruptSector flips bits in the sector containing off. The damage is
// persistent — it lives in the backing store, exactly like a real latent
// sector error, until something rewrites the sector.
func (d *Disk) CorruptSector(off int64) {
	if off < 0 || off >= d.params.CapacityBytes {
		return
	}
	sec := off / SectorSize * SectorSize
	d.store.CorruptAt(sec, SectorSize, 0x5a)
	d.latentErrors++
	d.cCorrupt.Inc()
	d.rec.Instant("disk", "corrupt-sector", d.id)
}

// maybeCorruptOnRead applies the URE model to a read about to be served:
// each sector covered by the read independently rots with probability
// ureRate. Damage is applied to the store before the data is extracted, so
// the caller sees the corrupted bytes (and any checksum layer above can
// catch them).
func (d *Disk) maybeCorruptOnRead(off int64, size int) {
	if d.ureRate <= 0 || size <= 0 {
		return
	}
	rng := d.sched.Rand()
	first := off / SectorSize
	last := (off + int64(size) - 1) / SectorSize
	for s := first; s <= last; s++ {
		if rng.Float64() < d.ureRate {
			d.CorruptSector(s * SectorSize)
		}
	}
}

// Degrade puts the disk mechanism into the given fail-slow regime. A second
// call replaces the first (the chaos scheduler closes one window before it
// opens another on the same disk).
func (d *Disk) Degrade(p DegradeParams) {
	if p.ServiceFactor < 1 {
		p.ServiceFactor = 1
	}
	d.degr = p
	d.degraded = true
	d.rec.Instant("disk", "degrade", d.id)
}

// ClearDegrade restores healthy media/mechanism behaviour.
func (d *Disk) ClearDegrade() {
	d.degr = DegradeParams{}
	d.degraded = false
	d.rec.Instant("disk", "degrade-clear", d.id)
}

// SetLinkCap caps the transport path independently of the mechanism: a USB
// link renegotiated down to HighSpeed moves ~35 MB/s no matter how healthy
// the platters are, and every transaction pays extra turnarounds. Zero cap
// and zero extra restore the native link.
func (d *Disk) SetLinkCap(bytesPerSec float64, extra time.Duration) {
	d.linkCapBps = bytesPerSec
	d.linkExtra = extra
}

// Health returns the current SMART-style health block.
func (d *Disk) Health() HealthStats { return d.health }

// capPenalty is the extra transfer time from capping the media rate at
// capBps: op.Size moved at capBps instead of mediaRate.
func capPenalty(size int, capBps, mediaRate float64) time.Duration {
	if capBps <= 0 || capBps >= mediaRate || size <= 0 {
		return 0
	}
	sec := float64(size)/capBps - float64(size)/mediaRate
	return time.Duration(sec * float64(time.Second))
}

// observeHealth folds one completed IO into the SMART block. The tail EWMA
// is peak-biased: slow completions pull it up at alpha 1/2, fast ones bleed
// it down at alpha 1/64, approximating a rolling p9x.
func (d *Disk) observeHealth(svc time.Duration, failed bool) {
	d.health.IOs++
	if failed {
		d.health.Errors++
	}
	const alpha = 0.2
	if d.health.ServiceEWMA == 0 {
		d.health.ServiceEWMA = svc
	} else {
		d.health.ServiceEWMA += time.Duration(alpha * float64(svc-d.health.ServiceEWMA))
	}
	if svc > d.health.TailEWMA {
		d.health.TailEWMA += (svc - d.health.TailEWMA) / 2
	} else {
		d.health.TailEWMA -= (d.health.TailEWMA - svc) / 64
	}
}

// ReplaceMedia swaps in a blank platter stack, modelling an operator
// swapping the failed drive for a fresh unit of the same model. All data
// and checksums are gone; latent-error history resets; the URE rate
// carries over (the replacement is the same drive model).
func (d *Disk) ReplaceMedia() {
	d.store = NewStore()
	d.latentErrors = 0
}

// service is one IO in service and its completion event's receiver. Every
// pump takes its own record and the completion gives it back, so a
// completion left over from before a power cycle still holds a record of its
// own: it cannot mistake the IO now in service (whose Done would never run)
// for the one it was scheduled for, nor store a payload whose write has
// already been failed.
type service struct {
	d      *Disk
	req    *Request
	svc    time.Duration
	failIO bool
	span   *obs.Span
}

// pump starts servicing the head of the queue if the disk is ready.
func (d *Disk) pump() {
	if d.state != StateIdle || len(d.queue) == 0 {
		return
	}
	req := d.queue[0]
	op := req.Op
	if d.hadOp && d.lastRead != op.Read {
		op.DirectionSwitch = true
		d.cSwitches.Inc()
	}
	d.hadOp = true
	d.lastRead = op.Read
	d.setState(StateActive)
	svc := d.params.ServiceTime(d.ic, op)
	// Transport regime (link downgrade): every IO pays the extra turnaround,
	// transfers pay the capped rate.
	svc += d.linkExtra + capPenalty(op.Size, d.linkCapBps, d.params.MediaRate)
	// Mechanism regime (fail-slow media). Drawn-out service first, then the
	// EIO draw — only when a nonzero rate is configured, so healthy runs
	// consume no RNG and replay byte-identically.
	failIO := false
	if d.degraded {
		svc = time.Duration(float64(svc) * d.degr.ServiceFactor)
		svc += d.degr.ExtraLatency + capPenalty(op.Size, d.degr.BandwidthCap, d.params.MediaRate)
		if d.degr.IOErrorRate > 0 {
			failIO = d.sched.Rand().Float64() < d.degr.IOErrorRate
		}
	}
	opName := "write"
	if op.Read {
		opName = "read"
	}
	s, fresh := d.services.Get()
	if fresh {
		s.d = d
	}
	s.req, s.svc, s.failIO = req, svc, failIO
	s.span = d.rec.Begin("disk", opName, d.id)
	d.serving = s
	d.sched.FireAfterR(svc, s)
}

// Fire completes the IO the record was scheduled for, unless a power cut
// failed it in the meantime.
func (s *service) Fire() {
	d, req, svc, failIO, span := s.d, s.req, s.svc, s.failIO, s.span
	stale := d.serving != s
	*s = service{d: d}
	d.services.Put(s)
	if stale {
		span.End(obs.L("aborted", "power-off"))
		return // powered off mid-IO; queue already failed
	}
	d.serving = nil
	// Shift the queue down rather than re-slicing past the head: the
	// backing array is kept for the next Submit, and the vacated tail slot
	// is cleared so a completed request pins nothing.
	n := copy(d.queue, d.queue[1:])
	d.queue[n] = nil
	d.queue = d.queue[:n]
	d.busy += svc
	d.completed++
	d.lastActive = d.sched.Now()
	d.observeHealth(svc, failIO)
	if failIO {
		// The command occupied the mechanism for its full service time
		// and then failed — the fail-slow pattern the health monitor's
		// error counters exist to catch.
		span.End(obs.L("error", "eio"))
		d.cIOErr.Inc()
		d.setState(StateIdle)
		if req.Done != nil {
			req.Done(nil, ErrIO)
		}
		d.pump()
		return
	}
	span.End()
	op := req.Op
	if op.Read {
		d.mIORead.ObserveDuration(svc)
	} else {
		d.mIOWrite.ObserveDuration(svc)
	}

	var data []byte
	if op.Read {
		d.maybeCorruptOnRead(req.Offset, op.Size)
		data = d.readFor(req.Dest, req.Offset, op.Size)
		d.bytesRead += uint64(op.Size)
	} else {
		d.store.WriteAt(req.Offset, req.Data)
	}
	d.setState(StateIdle)
	if req.Done != nil {
		req.Done(data, nil)
	}
	d.pump()
}

// readFor extracts a serviced read's bytes for dst: lent to a LendDest when
// they lie inside one chunk, else copied into a fresh buffer (nil dst) or
// dst's buffer. A discard read extracts none.
func (d *Disk) readFor(dst ReadDest, off int64, size int) []byte {
	if dst == Discard {
		return nil
	}
	if ld, ok := dst.(LendDest); ok && inOneChunk(off, size) {
		data, lease := d.store.lend(off, size)
		ld.Lend(lease)
		return data
	}
	var data []byte
	if dst == nil {
		data = make([]byte, size)
	} else {
		data = dst.ReadBuffer(size)
	}
	d.store.ReadInto(off, data)
	return data
}
