package placement

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Index is a placer's resident view of every disk it may ever place on:
// one row per disk in disk-ID order, the wiring interned to small
// integers, and the soft state a decision reads — bytes used, spinning,
// bad, draining, unit down, spinning disks per unit against the unit's
// limit — updated in place by whoever changes it. Spread reads that state
// where it lies; nothing is rebuilt, copied or hashed per decision.
//
// Rows group into buckets: the finer of the spread level's domain and the
// deploy unit. Every row of a bucket shares its domain, its rack and its
// unit's spin budget, so within one spin state they all cost the same and
// only the best of them — most free space, then lowest ID — can ever be
// picked: a row with less room is eligible only if the best one is too,
// and once a bucket yields a pick its whole domain is used up for the
// call. A bucket therefore caches two rows, its best spinning and its best
// idle one, a mutation marks only its own bucket stale, and Spread
// compares bucket tops. That is exact, not a heuristic: it returns what a
// scan of every row would.
//
// An Index is not safe for concurrent use.
type Index struct {
	// disks is the static identity of each row, sorted by ID. Free and
	// Spinning hold the values the index was built with, not live state.
	disks  []DiskView
	rows   []row
	unitOf []int32 // row -> unit number
	units  []unitState
	// unitByKey and rackByKey intern Location.Domain(LevelUnit) and
	// Location.Rack; numbers are handed out in row order.
	unitByKey map[string]int32
	rackByKey map[string]int32
	// sets holds the buckets of each spread level, built on first use.
	sets [4]*levelSet

	// Counts of rows flagged bad / draining and of units down.
	bad, draining, down int
}

const (
	rowSpinning uint8 = 1 << iota // bit 0: doubles as the bucket.top index
	rowBad
	rowDraining
)

type row struct {
	capacity int64
	used     int64
	flags    uint8
}

func (r *row) free() int64 { return r.capacity - r.used }

type unitState struct {
	rack int32
	down bool
	// limit is the unit's power budget in spinning disks; spinning counts
	// the unit's rows whose motor is up, healthy or not. limit-spinning is
	// how many more may spin up.
	limit    int
	spinning int
	used     int64 // sum of the unit's rows' used bytes
}

// noSpinLimit stands for "no power budget": large enough that no count of
// disks exhausts it.
const noSpinLimit = math.MaxInt / 2

// levelSet is the bucket structure of one spread level.
type levelSet struct {
	bucketOf []int32 // row -> bucket
	buckets  []bucket
	members  []int32 // rows grouped by bucket; bucket b owns members[b.lo:b.hi], ascending
	// domainByKey resolves a Location.Domain(level) key (SpreadOptions.
	// Exclude speaks in those) to the domain number buckets carry.
	domainByKey map[string]int32
}

type bucket struct {
	domain, unit, rack int32
	lo, hi             int32
	// top[0] is the best idle row and top[1] the best spinning one, among
	// rows neither bad nor draining; -1 when there is none. Valid unless
	// stale.
	top   [2]int32
	stale bool
}

// NewIndex builds an index over views: row i starts with views[i].Free
// bytes of capacity, none used, spinning as given. spinBudget maps a
// unit's domain key (LevelUnit) to how many more of its disks may spin up
// (a missing key means none); nil means no unit has a limit. The index
// keeps views — the caller must not modify it afterwards — unless they
// arrive out of ID order, in which case it works on a sorted copy. A view
// with an empty ID is never chosen.
func NewIndex(views []DiskView, spinBudget map[string]int) *Index {
	for i := 1; i < len(views); i++ {
		if views[i].ID < views[i-1].ID {
			views = append([]DiskView(nil), views...)
			sort.SliceStable(views, func(i, j int) bool { return views[i].ID < views[j].ID })
			break
		}
	}
	ix := &Index{
		disks:     views,
		rows:      make([]row, len(views)),
		unitOf:    make([]int32, len(views)),
		unitByKey: make(map[string]int32),
		rackByKey: make(map[string]int32),
	}
	for r := range views {
		v := &views[r]
		// Sorted views repeat their unit in runs, so the previous row
		// usually answers without building or hashing the key.
		var u int32
		if r > 0 && views[r-1].Loc.Rack == v.Loc.Rack && views[r-1].Loc.Unit == v.Loc.Unit {
			u = ix.unitOf[r-1]
		} else {
			u = ix.internUnit(v.Loc, spinBudget)
		}
		ix.unitOf[r] = u
		ix.rows[r].capacity = v.Free
		if v.Spinning {
			ix.rows[r].flags |= rowSpinning
			ix.units[u].spinning++
			ix.units[u].limit++ // spinBudget counts what may still spin up
		}
		if v.ID == "" {
			ix.rows[r].flags |= rowBad
			ix.bad++
		}
	}
	return ix
}

func (ix *Index) internUnit(loc Location, spinBudget map[string]int) int32 {
	key := loc.Domain(LevelUnit)
	if u, ok := ix.unitByKey[key]; ok {
		return u
	}
	rack, ok := ix.rackByKey[loc.Rack]
	if !ok {
		rack = int32(len(ix.rackByKey))
		ix.rackByKey[loc.Rack] = rack
	}
	limit := noSpinLimit
	if spinBudget != nil {
		limit = spinBudget[key]
	}
	u := int32(len(ix.units))
	ix.units = append(ix.units, unitState{rack: rack, limit: limit})
	ix.unitByKey[key] = u
	return u
}

// set returns the level's buckets, building them on first use. A level
// outside the four named ones spreads by host, as Location.Domain does.
func (ix *Index) set(level Level) *levelSet {
	if level < LevelHost || level > LevelRack {
		level = LevelHost
	}
	if ix.sets[level] == nil {
		ix.sets[level] = ix.buildSet(level)
	}
	return ix.sets[level]
}

func (ix *Index) buildSet(level Level) *levelSet {
	s := &levelSet{}
	if level == LevelUnit || level == LevelRack {
		// The unit is the bucket; only the domain it stands in differs.
		s.bucketOf = ix.unitOf
		s.domainByKey = ix.unitByKey
		if level == LevelRack {
			s.domainByKey = ix.rackByKey
		}
		s.buckets = make([]bucket, len(ix.units))
		for u := range ix.units {
			b := bucket{domain: int32(u), unit: int32(u), rack: ix.units[u].rack}
			if level == LevelRack {
				b.domain = b.rack
			}
			s.buckets[u] = b
		}
	} else {
		s.bucketOf = make([]int32, len(ix.rows))
		s.domainByKey = make(map[string]int32)
		leaf := func(l *Location) string {
			if level == LevelHub {
				return l.Hub
			}
			return l.Host
		}
		for r := range ix.disks {
			loc := &ix.disks[r].Loc
			// Same unit and same leaf name as the previous row is the same
			// key; anything else goes through the key map.
			if r > 0 && ix.unitOf[r] == ix.unitOf[r-1] && leaf(loc) == leaf(&ix.disks[r-1].Loc) {
				s.bucketOf[r] = s.bucketOf[r-1]
				continue
			}
			key := loc.Domain(level)
			b, ok := s.domainByKey[key]
			if !ok {
				b = int32(len(s.buckets))
				u := ix.unitOf[r]
				s.buckets = append(s.buckets, bucket{domain: b, unit: u, rack: ix.units[u].rack})
				s.domainByKey[key] = b
			}
			s.bucketOf[r] = b
		}
	}
	// Group rows by bucket: count, lay the ranges out, fill in row order.
	for _, b := range s.bucketOf {
		s.buckets[b].hi++
	}
	var next int32
	for b := range s.buckets {
		n := s.buckets[b].hi
		s.buckets[b].lo, s.buckets[b].hi = next, next
		s.buckets[b].stale = true
		next += n
	}
	s.members = make([]int32, len(ix.rows))
	for r, b := range s.bucketOf {
		s.members[s.buckets[b].hi] = int32(r)
		s.buckets[b].hi++
	}
	return s
}

// tops scans a bucket's rows for its best idle and best spinning one.
// Members are in row (= ID) order and only a strictly roomier row
// displaces the incumbent, which is the (free desc, ID asc) rule.
func (ix *Index) tops(s *levelSet, b *bucket) [2]int32 {
	top := [2]int32{-1, -1}
	for _, r := range s.members[b.lo:b.hi] {
		row := &ix.rows[r]
		if row.flags&(rowBad|rowDraining) != 0 {
			continue
		}
		spin := row.flags & rowSpinning
		if t := top[spin]; t < 0 || row.free() > ix.rows[t].free() {
			top[spin] = r
		}
	}
	return top
}

// touch marks row r's bucket stale at every level in use.
func (ix *Index) touch(r int) {
	for _, s := range ix.sets {
		if s != nil {
			s.buckets[s.bucketOf[r]].stale = true
		}
	}
}

func (ix *Index) touchAll() {
	for _, s := range ix.sets {
		if s != nil {
			for b := range s.buckets {
				s.buckets[b].stale = true
			}
		}
	}
}

// Spread appends to dst up to n rows, no two in one failure domain at
// level and none in a domain exclude names (a key no row has excludes
// nothing), each on a unit that is up, neither bad nor draining, with at
// least size bytes free. Among those the greedy pick prefers, in order: a rack not yet
// holding a fragment (cost 4), a spinning disk (spin-up costs 1, one more
// when the unit's spin budget — its limit less its spinning disks less the
// spin-ups this call already chose there — is exhausted), the most free
// space, and the lowest ID. It returns dst extended by the rows in pick
// order (fewer than n when the topology cannot spread that wide) and how
// many picks were forced over budget. The index is not changed: the caller
// charges what it commits to. A call allocates only to grow dst (a nil dst
// gets room for n rows), or when it excludes or places more than eight
// domains.
func (ix *Index) Spread(dst []int, n int, size int64, level Level, exclude []string) (picked []int, overBudget int) {
	picked = dst
	if n <= 0 || len(ix.rows) == 0 {
		return picked, 0
	}
	s := ix.set(level)
	var domBuf, rackBuf, spunBuf [8]int32
	usedDomains, usedRacks, spunUnits := domBuf[:0], rackBuf[:0], spunBuf[:0]
	for _, key := range exclude {
		if d, ok := s.domainByKey[key]; ok {
			usedDomains = append(usedDomains, d)
		}
	}
	for len(picked)-len(dst) < n {
		var best *bucket
		bestRow, bestCost, bestFree, bestOver := int32(-1), 0, int64(0), false
		for i := range s.buckets {
			b := &s.buckets[i]
			u := &ix.units[b.unit]
			if u.down || slices.Contains(usedDomains, b.domain) {
				continue
			}
			if b.stale {
				b.top = ix.tops(s, b)
				b.stale = false
			}
			rackCost := 0
			if slices.Contains(usedRacks, b.rack) {
				rackCost = 4
			}
			if r := b.top[1]; r >= 0 {
				free := ix.rows[r].free()
				if free >= size && (best == nil || beats(rackCost, free, r, bestCost, bestFree, bestRow)) {
					best, bestRow, bestCost, bestFree, bestOver = b, r, rackCost, free, false
				}
			}
			if r := b.top[0]; r >= 0 {
				free := ix.rows[r].free()
				cost := rackCost + 1
				over := u.limit-u.spinning-count(spunUnits, b.unit) <= 0
				if over {
					cost++
				}
				if free >= size && (best == nil || beats(cost, free, r, bestCost, bestFree, bestRow)) {
					best, bestRow, bestCost, bestFree, bestOver = b, r, cost, free, over
				}
			}
		}
		if best == nil {
			break
		}
		if picked == nil {
			picked = make([]int, 0, min(n, len(ix.rows)))
		}
		picked = append(picked, int(bestRow))
		usedDomains = append(usedDomains, best.domain)
		usedRacks = append(usedRacks, best.rack)
		if ix.rows[bestRow].flags&rowSpinning == 0 {
			spunUnits = append(spunUnits, best.unit)
		}
		if bestOver {
			overBudget++
		}
	}
	return picked, overBudget
}

// beats orders candidates: lower cost, then more free space, then the
// lower row (rows are in ID order).
func beats(cost int, free int64, r int32, bestCost int, bestFree int64, best int32) bool {
	if cost != bestCost {
		return cost < bestCost
	}
	if free != bestFree {
		return free > bestFree
	}
	return r < best
}

func count(xs []int32, x int32) int {
	n := 0
	for _, v := range xs {
		if v == x {
			n++
		}
	}
	return n
}

// --- mutation ---

// Charge puts size more bytes on row r and spins its disk up.
func (ix *Index) Charge(r int, size int64) {
	row, u := &ix.rows[r], &ix.units[ix.unitOf[r]]
	row.used += size
	u.used += size
	if row.flags&rowSpinning == 0 {
		row.flags |= rowSpinning
		u.spinning++
	}
	ix.touch(r)
}

// Release takes size bytes off row r, never below zero.
func (ix *Index) Release(r int, size int64) {
	row := &ix.rows[r]
	if size > row.used {
		size = row.used
	}
	row.used -= size
	ix.units[ix.unitOf[r]].used -= size
	ix.touch(r)
}

// SetBad marks row r's disk dead (or healthy again).
func (ix *Index) SetBad(r int, bad bool) { ix.setFlag(r, rowBad, bad, &ix.bad) }

// SetDraining marks row r's disk as being drained (or no longer).
func (ix *Index) SetDraining(r int, draining bool) {
	ix.setFlag(r, rowDraining, draining, &ix.draining)
}

func (ix *Index) setFlag(r int, flag uint8, on bool, n *int) {
	row := &ix.rows[r]
	if (row.flags&flag != 0) == on {
		return
	}
	row.flags ^= flag
	if on {
		*n++
	} else {
		*n--
	}
	ix.touch(r)
}

// SetUnitDown takes every disk of unit u out of placement (or back in).
func (ix *Index) SetUnitDown(u int, down bool) {
	if ix.units[u].down == down {
		return
	}
	ix.units[u].down = down
	if down {
		ix.down++
	} else {
		ix.down--
	}
}

// ResetUsage empties every disk and spins it down; health is kept.
func (ix *Index) ResetUsage() {
	for r := range ix.rows {
		ix.rows[r].used = 0
		ix.rows[r].flags &^= rowSpinning
	}
	for u := range ix.units {
		ix.units[u].used, ix.units[u].spinning = 0, 0
	}
	ix.touchAll()
}

// ResetHealth clears every bad, draining and unit-down mark; usage and
// spin state are kept.
func (ix *Index) ResetHealth() {
	for r := range ix.rows {
		ix.rows[r].flags &^= rowBad | rowDraining
	}
	for u := range ix.units {
		ix.units[u].down = false
	}
	ix.bad, ix.draining, ix.down = 0, 0, 0
	ix.touchAll()
}

// --- reading ---

// Len is the number of rows.
func (ix *Index) Len() int { return len(ix.rows) }

// Row finds a disk's row by ID.
func (ix *Index) Row(id string) (int, bool) {
	r := sort.Search(len(ix.disks), func(i int) bool { return ix.disks[i].ID >= id })
	return r, r < len(ix.disks) && ix.disks[r].ID == id
}

// ID is row r's disk ID.
func (ix *Index) ID(r int) string { return ix.disks[r].ID }

// Used is the bytes charged to row r.
func (ix *Index) Used(r int) int64 { return ix.rows[r].used }

// Capacity is row r's size in bytes.
func (ix *Index) Capacity(r int) int64 { return ix.rows[r].capacity }

// Bad reports whether row r's disk is marked dead.
func (ix *Index) Bad(r int) bool { return ix.rows[r].flags&rowBad != 0 }

// Draining reports whether row r's disk is being drained.
func (ix *Index) Draining(r int) bool { return ix.rows[r].flags&rowDraining != 0 }

// UnitOf is the number of row r's unit. Units are numbered from 0 in the
// order their first disk sorts.
func (ix *Index) UnitOf(r int) int { return int(ix.unitOf[r]) }

// UnitDown reports whether unit u is out of placement.
func (ix *Index) UnitDown(u int) bool { return ix.units[u].down }

// UnitUsed is the bytes charged across unit u's disks.
func (ix *Index) UnitUsed(u int) int64 { return ix.units[u].used }

// BadDisks, DrainingDisks and DownUnits count the marks currently set.
func (ix *Index) BadDisks() int      { return ix.bad }
func (ix *Index) DrainingDisks() int { return ix.draining }
func (ix *Index) DownUnits() int     { return ix.down }

// Validate recomputes everything the index maintains incrementally — the
// per-unit spinning counts and byte totals, the bad/draining/down counts,
// each level's row grouping and every bucket top not marked stale — from
// the rows and reports the first disagreement.
func (ix *Index) Validate() error {
	units := make([]unitState, len(ix.units))
	bad, draining, down := 0, 0, 0
	for r := range ix.rows {
		row, u := &ix.rows[r], &units[ix.unitOf[r]]
		if r > 0 && ix.disks[r].ID < ix.disks[r-1].ID {
			return fmt.Errorf("placement: index rows out of ID order at %s", ix.disks[r].ID)
		}
		if row.used < 0 {
			return fmt.Errorf("placement: disk %s has %d bytes used", ix.disks[r].ID, row.used)
		}
		u.used += row.used
		if row.flags&rowSpinning != 0 {
			u.spinning++
		}
		if row.flags&rowBad != 0 {
			bad++
		}
		if row.flags&rowDraining != 0 {
			draining++
		}
	}
	for u := range ix.units {
		if got, want := ix.units[u].spinning, units[u].spinning; got != want {
			return fmt.Errorf("placement: unit %d counts %d spinning disks, rows say %d", u, got, want)
		}
		if got, want := ix.units[u].used, units[u].used; got != want {
			return fmt.Errorf("placement: unit %d counts %d bytes used, rows say %d", u, got, want)
		}
		if ix.units[u].down {
			down++
		}
	}
	if ix.bad != bad || ix.draining != draining || ix.down != down {
		return fmt.Errorf("placement: index counts %d bad, %d draining, %d down; rows say %d, %d, %d",
			ix.bad, ix.draining, ix.down, bad, draining, down)
	}
	for level, s := range ix.sets {
		if s == nil {
			continue
		}
		grouped := 0
		for i := range s.buckets {
			b := &s.buckets[i]
			for _, r := range s.members[b.lo:b.hi] {
				if int(s.bucketOf[r]) != i || ix.unitOf[r] != b.unit {
					return fmt.Errorf("placement: %s bucket %d lists disk %s of another bucket",
						levelNames[level], i, ix.disks[r].ID)
				}
			}
			grouped += int(b.hi - b.lo)
			if want := ix.tops(s, b); !b.stale && b.top != want {
				return fmt.Errorf("placement: %s bucket %d caches tops %v, rows say %v",
					levelNames[level], i, b.top, want)
			}
		}
		if grouped != len(ix.rows) {
			return fmt.Errorf("placement: %s buckets group %d of %d rows", levelNames[level], grouped, len(ix.rows))
		}
	}
	return nil
}
