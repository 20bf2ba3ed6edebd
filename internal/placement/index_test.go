package placement

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// model is the plain restatement of what a placer knows: per-disk facts in
// a flat slice and per-unit facts in maps, with nothing derived kept. The
// differential test mutates it and an Index side by side, rebuilds the
// candidate views and spin budget from it the way the fleet used to per
// allocation, and requires Index.Spread to decide what spreadReference
// decides over those views.
type model struct {
	disks []modelDisk
	// limit is each unit's spin limit by LevelUnit key; a unit without an
	// entry has no budget at all.
	limit map[string]int
	down  map[string]bool
}

type modelDisk struct {
	id                      string
	loc                     Location
	capacity, used          int64
	spinning, bad, draining bool
}

func randomModel(rng *rand.Rand) *model {
	m := &model{limit: map[string]int{}, down: map[string]bool{}}
	racks, unitsPerRack := 1+rng.Intn(3), 1+rng.Intn(4)
	hosts, disks := 1+rng.Intn(3), 1+rng.Intn(6)
	oneSize := rng.Intn(2) == 0 // equal capacities make the ID tie-break decide
	unit := 0
	for r := 0; r < racks; r++ {
		for u := 0; u < unitsPerRack; u++ {
			rack, name := fmt.Sprintf("r%d", r), fmt.Sprintf("u%02d", unit)
			unit++
			if rng.Intn(8) > 0 {
				m.limit[rack+"/"+name] = rng.Intn(hosts*disks + 1)
			}
			for h := 0; h < hosts; h++ {
				for d := 0; d < disks; d++ {
					capacity := int64(1000)
					if !oneSize {
						capacity = int64(600 + 200*rng.Intn(3))
					}
					m.disks = append(m.disks, modelDisk{
						id:       fmt.Sprintf("%s/h%d/d%02d", name, h, d),
						capacity: capacity,
						loc: Location{
							Rack: rack, Unit: name,
							Hub:  fmt.Sprintf("%s/h%d/b%d", name, h, d/2),
							Host: fmt.Sprintf("%s/h%d", name, h),
						},
					})
				}
			}
		}
	}
	return m
}

// index builds the Index a placer would hold for the model's disks, all
// empty and spun down.
func (m *model) index() *Index {
	views := make([]DiskView, len(m.disks))
	for i, d := range m.disks {
		views[i] = DiskView{ID: d.id, Host: d.loc.Host, Free: d.capacity, Loc: d.loc}
	}
	return NewIndex(views, m.limit)
}

// candidates is the eligible set and spin budget rebuilt from scratch.
func (m *model) candidates(size int64) ([]DiskView, map[string]int) {
	budget := map[string]int{}
	for k, v := range m.limit {
		budget[k] = v
	}
	var views []DiskView
	for _, d := range m.disks {
		key := d.loc.Domain(LevelUnit)
		if _, limited := m.limit[key]; limited && d.spinning {
			budget[key]--
		}
		if m.down[key] || d.bad || d.draining || d.capacity-d.used < size {
			continue
		}
		views = append(views, DiskView{
			ID: d.id, Host: d.loc.Host, Free: d.capacity - d.used, Spinning: d.spinning, Loc: d.loc,
		})
	}
	return views, budget
}

// mutate applies one random soft-state change to the model and the index.
func (m *model) mutate(rng *rand.Rand, ix *Index) {
	i := rng.Intn(len(m.disks))
	d := &m.disks[i]
	r, ok := ix.Row(d.id)
	if !ok || r != i {
		panic("model and index disagree on row order")
	}
	switch op := rng.Intn(16); {
	case op < 6: // charge
		size := int64(1 + rng.Intn(400))
		d.used += size
		d.spinning = true
		ix.Charge(r, size)
	case op < 9: // un-charge, clamped at empty
		size := int64(1 + rng.Intn(600))
		if d.used -= size; d.used < 0 {
			d.used = 0
		}
		ix.Release(r, size)
	case op < 11:
		d.bad = !d.bad
		ix.SetBad(r, d.bad)
	case op < 13:
		d.draining = !d.draining
		ix.SetDraining(r, d.draining)
	case op < 15:
		key := d.loc.Domain(LevelUnit)
		m.down[key] = !m.down[key]
		ix.SetUnitDown(ix.UnitOf(r), m.down[key])
	default:
		if rng.Intn(2) == 0 { // what rebuild does before it re-charges
			for j := range m.disks {
				m.disks[j].used, m.disks[j].spinning = 0, false
			}
			ix.ResetUsage()
		} else { // what restart does
			for j := range m.disks {
				m.disks[j].bad, m.disks[j].draining = false, false
			}
			m.down = map[string]bool{}
			ix.ResetHealth()
		}
	}
}

func ids(views []DiskView) string {
	out := make([]string, len(views))
	for i, v := range views {
		out[i] = v.ID
	}
	return strings.Join(out, " ")
}

// TestIndexSpreadMatchesReference is the differential test: after every
// mutation of a random topology, the resident index, the throwaway-index
// wrapper and the pre-index scan must name the same disks in the same
// order with the same OverBudget.
func TestIndexSpreadMatchesReference(t *testing.T) {
	const topologies, mutations = 2500, 40
	rng := rand.New(rand.NewSource(17))
	for topo := 0; topo < topologies; topo++ {
		m := randomModel(rng)
		ix := m.index()
		buf := []int{-1}
		for step := 0; step < mutations; step++ {
			m.mutate(rng, ix)
			if err := ix.Validate(); err != nil {
				t.Fatalf("topology %d step %d: %v", topo, step, err)
			}
			level := Level(rng.Intn(4))
			n := 1 + rng.Intn(4)
			size := int64(rng.Intn(700))
			var exclude []string
			for k := rng.Intn(3); k > 0; k-- {
				exclude = append(exclude, m.disks[rng.Intn(len(m.disks))].loc.Domain(level))
			}
			if rng.Intn(4) == 0 {
				exclude = append(exclude, "r9/nowhere") // a key no disk has
			}
			views, budget := m.candidates(size)
			opts := SpreadOptions{Level: level, Exclude: exclude, SpinBudget: budget}
			want := spreadReference(views, n, opts)

			// Odd steps append behind a row already in a reused buffer.
			var dst []int
			if step%2 == 1 {
				dst = buf[:1]
			}
			rows, over := ix.Spread(dst, n, size, level, exclude)
			if len(dst) > 0 {
				if rows[0] != -1 {
					t.Fatalf("topology %d step %d: Spread overwrote the buffer's first row", topo, step)
				}
				rows, buf = rows[1:], rows
			}
			got := make([]string, len(rows))
			for i, r := range rows {
				got[i] = ix.ID(r)
			}
			if g, w := strings.Join(got, " "), ids(want.Disks); g != w || over != want.OverBudget {
				t.Fatalf("topology %d step %d (%s, n=%d, size=%d, exclude=%v):\n index picked [%s] over=%d\n  reference [%s] over=%d",
					topo, step, levelNames[level], n, size, exclude, g, over, w, want.OverBudget)
			}
			wrapped := Spread(views, n, opts)
			if g, w := ids(wrapped.Disks), ids(want.Disks); g != w || wrapped.OverBudget != want.OverBudget {
				t.Fatalf("topology %d step %d (%s, n=%d): Spread picked [%s] over=%d, reference [%s] over=%d",
					topo, step, levelNames[level], n, g, wrapped.OverBudget, w, want.OverBudget)
			}
			for i := range wrapped.Disks {
				if wrapped.Disks[i] != want.Disks[i] {
					t.Fatalf("topology %d step %d: Spread returned view %+v, reference %+v",
						topo, step, wrapped.Disks[i], want.Disks[i])
				}
			}
		}
	}
}

// TestSpreadUnsortedAndUnbudgeted covers what the fleet never does but the
// wrapper's contract allows: candidates out of ID order, duplicate and
// empty IDs, and no spin budget at all.
func TestSpreadUnsortedAndUnbudgeted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 500; round++ {
		m := randomModel(rng)
		for i := range m.disks {
			m.disks[i].spinning = rng.Intn(2) == 0
		}
		views, budget := m.candidates(0)
		rng.Shuffle(len(views), func(i, j int) { views[i], views[j] = views[j], views[i] })
		if rng.Intn(2) == 0 {
			views = append(views, views[rng.Intn(len(views))]) // a duplicate ID
			views[rng.Intn(len(views))].ID = ""                // and one already consumed
		}
		if rng.Intn(2) == 0 {
			budget = nil
		}
		before := append([]DiskView(nil), views...)
		opts := SpreadOptions{Level: Level(rng.Intn(4)), SpinBudget: budget}
		n := 1 + rng.Intn(4)
		got, want := Spread(views, n, opts), spreadReference(views, n, opts)
		if g, w := ids(got.Disks), ids(want.Disks); g != w || got.OverBudget != want.OverBudget {
			t.Fatalf("round %d (%s, n=%d): Spread picked [%s] over=%d, reference [%s] over=%d",
				round, levelNames[opts.Level], n, g, got.OverBudget, w, want.OverBudget)
		}
		for i := range views {
			if views[i] != before[i] {
				t.Fatalf("round %d: candidate %d mutated", round, i)
			}
		}
	}
}

// shardIndex builds an index shaped like a fleet shard's: units of 4 hosts
// x 16 disks, half of each unit allowed to spin.
func shardIndex(units int) *Index {
	var views []DiskView
	budget := map[string]int{}
	for u := 0; u < units; u++ {
		rack, unit := fmt.Sprintf("r%02d", u%8), fmt.Sprintf("u%03d", u)
		budget[rack+"/"+unit] = 32
		for h := 0; h < 4; h++ {
			for d := 0; d < 16; d++ {
				views = append(views, DiskView{
					ID: fmt.Sprintf("%s/h%d/d%02d", unit, h, d), Free: 3e12,
					Loc: Location{
						Rack: rack, Unit: unit,
						Hub:  fmt.Sprintf("%s/h%d/b%d", unit, h, d/4),
						Host: fmt.Sprintf("%s/h%d", unit, h),
					},
				})
			}
		}
	}
	return NewIndex(views, budget)
}

func TestIndexSpreadAllocatesOnlyItsResult(t *testing.T) {
	ix := shardIndex(8) // 512 rows
	for _, level := range []Level{LevelHost, LevelHub, LevelUnit, LevelRack} {
		exclude := []string{ix.disks[0].Loc.Domain(level)}
		allocs := testing.AllocsPerRun(100, func() {
			rows, _ := ix.Spread(nil, 3, 1<<30, level, exclude)
			for _, r := range rows {
				ix.Charge(r, 1<<30)
			}
		})
		if allocs > 1 {
			t.Fatalf("%s: Spread + Charge allocated %.0f times per call, want at most the result slice", levelNames[level], allocs)
		}
	}
}

// TestIndexValidateCatchesSkew is the checker's planted mutation: a
// counter that drifts from its rows must fail Validate.
func TestIndexValidateCatchesSkew(t *testing.T) {
	ix := shardIndex(2)
	rows, _ := ix.Spread(nil, 2, 1, LevelUnit, nil)
	for _, r := range rows {
		ix.Charge(r, 1)
	}
	if err := ix.Validate(); err != nil {
		t.Fatalf("clean index: %v", err)
	}
	ix.SkewSpinCount(1)
	if err := ix.Validate(); err == nil || !strings.Contains(err.Error(), "spinning") {
		t.Fatalf("Validate = %v after a skewed spinning count, want an error naming it", err)
	}
}

// TestIndexValidateCatchesStaleTop checks the other half of the derived
// state: a bucket top that no longer matches its rows.
func TestIndexValidateCatchesStaleTop(t *testing.T) {
	ix := shardIndex(2)
	rows, _ := ix.Spread(nil, 1, 1, LevelUnit, nil) // builds and caches the tops
	ix.rows[rows[0]].used = 5                       // behind the index's back: no bucket marked stale
	ix.units[ix.unitOf[rows[0]]].used = 5
	if err := ix.Validate(); err == nil || !strings.Contains(err.Error(), "tops") {
		t.Fatalf("Validate = %v after an untracked change, want a bucket-top error", err)
	}
}

var sinkRows []int

// BenchmarkIndexAllocate is one allocation as the fleet makes it: pick
// three fragments, charge them.
func BenchmarkIndexAllocate(b *testing.B) {
	for _, units := range []int{8, 64} {
		b.Run(fmt.Sprintf("rows=%d", units*64), func(b *testing.B) {
			ix := shardIndex(units)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRows, _ = ix.Spread(sinkRows[:0], 3, 1<<20, LevelUnit, nil)
				for _, r := range sinkRows {
					ix.Charge(r, 1<<20)
				}
			}
		})
	}
}
