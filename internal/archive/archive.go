// Package archive is an erasure-coded archival object store built on
// UStore — the second flavour of upper-layer redundancy the paper expects
// (§IV-E delegates data recovery upward; §VIII cites erasure coding as the
// standard technique). Objects are split into k data shards plus m parity
// shards (Reed-Solomon, package ec) and placed on k+m UStore spaces that
// live on distinct disks, so any m concurrent disk or host losses leave
// every object readable — without UStore itself storing anything twice.
package archive

import (
	"errors"
	"fmt"

	"time"
	"ustore/internal/core"
	"ustore/internal/ec"

	"ustore/internal/simtime"
)

// degradedReadBudget bounds per-shard read retries: a shard that does not
// answer within it is treated as lost and served from parity instead.
const degradedReadBudget = 4 * time.Second

// Errors returned by the store.
var (
	// ErrNotOpen is returned before Open completes.
	ErrNotOpen = errors.New("archive: store not open")
	// ErrUnknownObject is returned for unknown object names.
	ErrUnknownObject = errors.New("archive: unknown object")
	// ErrObjectTooLarge is returned when an object exceeds stripe capacity.
	ErrObjectTooLarge = errors.New("archive: object too large")
)

// ClientFactory supplies the ClientLib for one shard slot. Each slot must
// use a distinct service name: the Master's same-service affinity rule
// would otherwise pack every shard onto one disk, destroying the failure
// independence erasure coding exists for.
type ClientFactory func(slot int) *core.ClientLib

// shardSlot is one of the store's k+m backing spaces.
type shardSlot struct {
	cl     *core.ClientLib
	space  core.SpaceID
	diskID string
	// next is the bump-allocation offset within the space.
	next int64
	size int64
}

// objectMeta records an object's placement.
type objectMeta struct {
	length   int64
	shardLen int64
	// offsets[i] is the shard's offset within slot i's space.
	offsets []int64
}

// Store is an erasure-coded object store over one UStore cluster.
type Store struct {
	factory ClientFactory
	sched   *simtime.Scheduler
	code    *ec.Code
	slots   []*shardSlot
	meta    map[string]*objectMeta
	open    bool

	// Reconstructions counts reads that needed parity (degraded reads).
	Reconstructions uint64
}

// New creates a store with RS(k, m) protection. factory supplies one
// ClientLib per shard slot (distinct service names per slot).
func New(factory ClientFactory, sched *simtime.Scheduler, k, m int) (*Store, error) {
	code, err := ec.New(k, m)
	if err != nil {
		return nil, err
	}
	return &Store{factory: factory, sched: sched, code: code, meta: make(map[string]*objectMeta)}, nil
}

// Open allocates the k+m backing spaces (each through its own slot client
// so the Master's affinity rule places them on distinct disks) and mounts
// them. done fires when the store is usable.
func (s *Store) Open(bytesPerSlot int64, done func(error)) {
	total := s.code.K() + s.code.M()
	var alloc func(i int)
	alloc = func(i int) {
		if i >= total {
			s.open = true
			done(nil)
			return
		}
		cl := s.factory(i)
		cl.Allocate(bytesPerSlot, func(rep core.AllocateReply, err error) {
			if err != nil {
				done(fmt.Errorf("allocating slot %d: %w", i, err))
				return
			}
			for _, prev := range s.slots {
				if prev.diskID == rep.DiskID {
					done(fmt.Errorf("archive: slot %d shares disk %s with another slot (need distinct disks)", i, rep.DiskID))
					return
				}
			}
			slot := &shardSlot{cl: cl, space: rep.Space, diskID: rep.DiskID, size: rep.Size}
			cl.Mount(rep.Space, func(err error) {
				if err != nil {
					done(fmt.Errorf("mounting slot %d: %w", i, err))
					return
				}
				s.slots = append(s.slots, slot)
				alloc(i + 1)
			})
		})
	}
	alloc(0)
}

// Slots returns the backing disk IDs, in shard order (tests and demos).
func (s *Store) Slots() []string {
	out := make([]string, len(s.slots))
	for i, sl := range s.slots {
		out[i] = sl.diskID
	}
	return out
}

// Put stores data under name: split, encode, write all k+m shards in
// parallel, succeed when every shard is durable.
func (s *Store) Put(name string, data []byte, done func(error)) {
	if !s.open {
		s.sched.FireAfter(0, func() { done(ErrNotOpen) })
		return
	}
	shards := s.code.Split(data)
	parity, err := s.code.Encode(shards)
	if err != nil {
		s.sched.FireAfter(0, func() { done(err) })
		return
	}
	all := append(append([][]byte(nil), shards...), parity...)
	shardLen := int64(len(shards[0]))
	meta := &objectMeta{length: int64(len(data)), shardLen: shardLen, offsets: make([]int64, len(all))}
	for i, slot := range s.slots {
		if slot.next+shardLen > slot.size {
			s.sched.FireAfter(0, func() { done(fmt.Errorf("%w: slot %d full", ErrObjectTooLarge, i)) })
			return
		}
		meta.offsets[i] = slot.next
		slot.next += shardLen
	}
	remaining := len(all)
	failed := false
	for i, shard := range all {
		i, shard := i, shard
		s.slots[i].cl.Write(s.slots[i].space, meta.offsets[i], shard, func(err error) {
			if failed {
				return
			}
			if err != nil {
				failed = true
				done(fmt.Errorf("writing shard %d: %w", i, err))
				return
			}
			remaining--
			if remaining == 0 {
				s.meta[name] = meta
				done(nil)
			}
		})
	}
}

// Get fetches name, reconstructing through parity if shards are
// unavailable (failed disks, crashed hosts mid-failover). done receives
// the object bytes.
func (s *Store) Get(name string, done func([]byte, error)) {
	meta, ok := s.meta[name]
	if !ok {
		s.sched.FireAfter(0, func() { done(nil, fmt.Errorf("%w: %s", ErrUnknownObject, name)) })
		return
	}
	total := s.code.K() + s.code.M()
	shards := make([][]byte, total)
	remaining := total
	finished := false
	finish := func() {
		if finished {
			return
		}
		finished = true
		present := 0
		missingData := false
		for i, sh := range shards {
			if sh != nil {
				present++
			} else if i < s.code.K() {
				missingData = true
			}
		}
		if present < s.code.K() {
			done(nil, fmt.Errorf("%w: only %d of %d shards readable", ec.ErrTooFewShards, present, s.code.K()))
			return
		}
		if missingData {
			s.Reconstructions++
			if err := s.code.Reconstruct(shards); err != nil {
				done(nil, err)
				return
			}
		}
		data, err := s.code.Join(shards[:s.code.K()], int(meta.length))
		done(data, err)
	}
	for i := 0; i < total; i++ {
		i := i
		s.slots[i].cl.ReadWithBudget(s.slots[i].space, meta.offsets[i], int(meta.shardLen), degradedReadBudget,
			func(data []byte, err error) {
				if err == nil {
					// Kept until every shard has answered; data is only
					// valid until this callback returns.
					shards[i] = append([]byte(nil), data...)
				}
				remaining--
				if remaining == 0 {
					finish()
				}
			})
	}
}

// Objects returns how many objects the store holds.
func (s *Store) Objects() int { return len(s.meta) }
