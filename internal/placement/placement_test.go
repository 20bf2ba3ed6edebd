package placement

import (
	"fmt"
	"testing"
)

func view(id, host, owner string, free int64) DiskView {
	return DiskView{ID: id, Host: host, Owner: owner, Free: free, Spinning: true}
}

func TestPickSingleSameServiceAffinity(t *testing.T) {
	cands := []DiskView{
		view("d1", "h1", "", 100),
		view("d2", "h2", "svcA", 100),
		view("d3", "h1", "svcB", 100),
	}
	if got := PickSingle(cands, "svcA", "h1"); got != "d2" {
		t.Fatalf("affinity pick = %q, want d2", got)
	}
}

func TestPickSingleLocality(t *testing.T) {
	cands := []DiskView{
		view("d1", "h1", "other", 100),
		view("d2", "h2", "", 100),
		view("d3", "h3", "", 100),
	}
	if got := PickSingle(cands, "svcA", "h3"); got != "d3" {
		t.Fatalf("locality pick = %q, want d3", got)
	}
}

func TestPickSingleUnownedFallback(t *testing.T) {
	cands := []DiskView{
		view("d1", "h1", "other", 100),
		view("d2", "h2", "", 100),
	}
	if got := PickSingle(cands, "svcA", "h9"); got != "d2" {
		t.Fatalf("unowned pick = %q, want d2", got)
	}
}

func TestPickSingleLastResortAndEmpty(t *testing.T) {
	cands := []DiskView{view("d7", "h1", "other", 100)}
	if got := PickSingle(cands, "svcA", "h9"); got != "d7" {
		t.Fatalf("last-resort pick = %q, want d7", got)
	}
	if got := PickSingle(nil, "svcA", "h9"); got != "" {
		t.Fatalf("empty pick = %q, want \"\"", got)
	}
}

// locView builds a candidate at a topology position.
func locView(rack, unit, host, hub, id string, free int64, spinning bool) DiskView {
	return DiskView{
		ID: id, Host: host, Free: free, Spinning: spinning,
		Loc: Location{Rack: rack, Unit: unit, Hub: hub, Host: host},
	}
}

// grid builds racks x unitsPerRack x disksPerUnit candidates.
func grid(racks, unitsPerRack, disksPerUnit int) []DiskView {
	var out []DiskView
	for r := 0; r < racks; r++ {
		for u := 0; u < unitsPerRack; u++ {
			for d := 0; d < disksPerUnit; d++ {
				rack := fmt.Sprintf("r%d", r)
				unit := fmt.Sprintf("u%d-%d", r, u)
				out = append(out, locView(rack, unit, unit+"/h0", unit+"/b0",
					fmt.Sprintf("%s/d%02d", unit, d), 1000, true))
			}
		}
	}
	SortViews(out)
	return out
}

func TestSpreadDistinctUnits(t *testing.T) {
	cands := grid(2, 3, 4)
	res := Spread(cands, 3, SpreadOptions{Level: LevelUnit})
	if len(res.Disks) != 3 {
		t.Fatalf("placed %d fragments, want 3", len(res.Disks))
	}
	units := map[string]bool{}
	racks := map[string]bool{}
	for _, d := range res.Disks {
		if units[d.Loc.Unit] {
			t.Fatalf("two fragments share unit %s", d.Loc.Unit)
		}
		units[d.Loc.Unit] = true
		racks[d.Loc.Rack] = true
	}
	// With 2 racks available a 3-way spread must still use both.
	if len(racks) != 2 {
		t.Fatalf("used %d racks, want 2", len(racks))
	}
}

func TestSpreadHonorsExclude(t *testing.T) {
	cands := grid(2, 2, 2)
	// Surviving fragments already occupy units u0-0 and u0-1.
	res := Spread(cands, 1, SpreadOptions{
		Level:   LevelUnit,
		Exclude: []string{"r0/u0-0", "r0/u0-1"},
	})
	if len(res.Disks) != 1 {
		t.Fatalf("placed %d, want 1", len(res.Disks))
	}
	if got := res.Disks[0].Loc.Rack; got != "r1" {
		t.Fatalf("repair landed in rack %s, want r1", got)
	}
}

func TestSpreadTooFewDomains(t *testing.T) {
	cands := grid(1, 2, 8) // only two units exist
	res := Spread(cands, 3, SpreadOptions{Level: LevelUnit})
	if len(res.Disks) != 2 {
		t.Fatalf("placed %d fragments, want 2 (domain-limited)", len(res.Disks))
	}
}

func TestSpreadPrefersSpinningWithinBudget(t *testing.T) {
	cands := []DiskView{
		locView("r0", "u0", "u0/h0", "u0/b0", "u0/d0", 500, false),
		locView("r0", "u1", "u1/h0", "u1/b0", "u1/d0", 100, true),
		locView("r1", "u2", "u2/h0", "u2/b0", "u2/d0", 500, false),
	}
	SortViews(cands)
	budget := map[string]int{"r0/u0": 0, "r0/u1": 1, "r1/u2": 1}
	res := Spread(cands, 2, SpreadOptions{Level: LevelUnit, SpinBudget: budget})
	if len(res.Disks) != 2 {
		t.Fatalf("placed %d, want 2", len(res.Disks))
	}
	// The spinning disk wins over the bigger spun-down ones; the second
	// pick prefers the unit with spin budget (u2, also a fresh rack) over
	// the over-budget u0.
	if res.Disks[0].ID != "u1/d0" || res.Disks[1].ID != "u2/d0" {
		t.Fatalf("picked %s then %s, want u1/d0 then u2/d0",
			res.Disks[0].ID, res.Disks[1].ID)
	}
	if res.OverBudget != 0 {
		t.Fatalf("OverBudget = %d, want 0", res.OverBudget)
	}
}

func TestSpreadOverBudgetForcedPick(t *testing.T) {
	cands := []DiskView{
		locView("r0", "u0", "u0/h0", "u0/b0", "u0/d0", 500, false),
		locView("r0", "u1", "u1/h0", "u1/b0", "u1/d0", 500, false),
	}
	SortViews(cands)
	budget := map[string]int{"r0/u0": 0, "r0/u1": 0}
	res := Spread(cands, 2, SpreadOptions{Level: LevelUnit, SpinBudget: budget})
	if len(res.Disks) != 2 {
		t.Fatalf("placed %d, want 2", len(res.Disks))
	}
	if res.OverBudget != 2 {
		t.Fatalf("OverBudget = %d, want 2 (no budget anywhere)", res.OverBudget)
	}
}

func TestSpreadDoesNotMutateCandidates(t *testing.T) {
	cands := grid(2, 2, 2)
	before := append([]DiskView(nil), cands...)
	Spread(cands, 3, SpreadOptions{Level: LevelUnit})
	for i := range cands {
		if cands[i] != before[i] {
			t.Fatalf("candidate %d mutated: %+v != %+v", i, cands[i], before[i])
		}
	}
}

func TestSpreadDoesNotMutateBudget(t *testing.T) {
	cands := []DiskView{
		locView("r0", "u0", "u0/h0", "u0/b0", "u0/d0", 500, false),
		locView("r0", "u1", "u1/h0", "u1/b0", "u1/d0", 500, false),
	}
	SortViews(cands)
	budget := map[string]int{"r0/u0": 1, "r0/u1": 1}
	res := Spread(cands, 2, SpreadOptions{Level: LevelUnit, SpinBudget: budget})
	if len(res.Disks) != 2 || res.OverBudget != 0 {
		t.Fatalf("placed %d over=%d, want 2/0", len(res.Disks), res.OverBudget)
	}
	// Both picks spun up a disk, but the caller's budget must be untouched
	// so it can be reused across calls.
	if budget["r0/u0"] != 1 || budget["r0/u1"] != 1 {
		t.Fatalf("caller budget mutated: %v", budget)
	}
}

func TestDomainKeysQualified(t *testing.T) {
	a := Location{Rack: "r0", Unit: "u0", Hub: "b0", Host: "h0"}
	b := Location{Rack: "r1", Unit: "u0", Hub: "b0", Host: "h0"}
	if a.Domain(LevelHub) == b.Domain(LevelHub) {
		t.Fatal("hub keys in different racks must differ")
	}
	if a.Domain(LevelHost) == b.Domain(LevelHost) {
		t.Fatal("host keys in different racks must differ")
	}
	if a.Domain(LevelRack) == b.Domain(LevelRack) {
		t.Fatal("rack keys must differ")
	}
}

// spreadReference is Spread as it was before the Index existed: a scan of
// every candidate per pick, domains compared as strings. It is the
// specification the differential test in index_test.go holds Index.Spread
// and the Spread wrapper to, decision for decision.
func spreadReference(candidates []DiskView, n int, opts SpreadOptions) SpreadResult {
	var res SpreadResult
	if n <= 0 || len(candidates) == 0 {
		return res
	}
	candidates = append([]DiskView(nil), candidates...) // consumed in place
	usedDomain := make(map[string]bool, n+len(opts.Exclude))
	usedRack := make(map[string]bool, n)
	for _, d := range opts.Exclude {
		usedDomain[d] = true
	}
	// Remaining spin budget is consumed as picks land on spun-down disks —
	// on a private copy, so a caller may reuse its budget across calls.
	var budget map[string]int
	if opts.SpinBudget != nil {
		budget = make(map[string]int, len(opts.SpinBudget))
		for k, v := range opts.SpinBudget {
			budget[k] = v
		}
	}
	for len(res.Disks) < n {
		best := -1
		bestCost := 0
		for i, d := range candidates {
			if d.ID == "" { // consumed
				continue
			}
			if usedDomain[d.Loc.Domain(opts.Level)] {
				continue
			}
			// Cost ranks the soft preferences: rack reuse is worst at 4,
			// spin state adds 0 (spinning), 1 (spin-up within budget) or 2
			// (forced over-budget spin-up).
			cost := 0
			if usedRack[d.Loc.Rack] {
				cost += 4
			}
			if !d.Spinning {
				cost++
				if budget != nil && budget[d.Loc.Domain(LevelUnit)] <= 0 {
					cost++
				}
			}
			if best < 0 || cost < bestCost ||
				(cost == bestCost && moreDesirable(d, candidates[best])) {
				best, bestCost = i, cost
			}
		}
		if best < 0 {
			break
		}
		d := candidates[best]
		candidates[best].ID = "" // consume without reslicing
		usedDomain[d.Loc.Domain(opts.Level)] = true
		usedRack[d.Loc.Rack] = true
		if !d.Spinning {
			if budget != nil {
				key := d.Loc.Domain(LevelUnit)
				if budget[key] <= 0 {
					res.OverBudget++
				}
				budget[key]--
			}
		}
		res.Disks = append(res.Disks, d)
	}
	return res
}

// moreDesirable orders equal-cost candidates: most free space first, then
// lexicographic disk ID.
func moreDesirable(a, b DiskView) bool {
	if a.Free != b.Free {
		return a.Free > b.Free
	}
	return a.ID < b.ID
}
