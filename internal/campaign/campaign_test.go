package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ustore/internal/spec"
)

const durabilityGrid = `name: durability-grid
mode: durability
seed: 9
durability:
  disks: 128
  trials: 2
grid:
  durability.scheme: [r2, r3]
  failure.model: [constant, empirical]
`

func parse(t *testing.T, doc string) *spec.File {
	t.Helper()
	f, err := spec.Parse([]byte(doc), "test.yaml")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCacheRerunSkipsEveryCell is the cache contract's core: an identical
// re-run executes nothing — every cell is a hit — and the merged report
// is byte-identical to the first run's.
func TestCacheRerunSkipsEveryCell(t *testing.T) {
	dir := t.TempDir()
	f := parse(t, durabilityGrid)
	first, err := Run(f, Options{CacheDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Hits != 0 || first.Miss != 4 {
		t.Fatalf("first run: %d hits / %d misses, want 0/4", first.Hits, first.Miss)
	}
	second, err := Run(f, Options{CacheDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if second.Hits != 4 || second.Miss != 0 {
		t.Fatalf("re-run: %d hits / %d misses, want 4/0 (zero executions)", second.Hits, second.Miss)
	}
	if first.Text() != second.Text() {
		t.Fatalf("cached report differs from computed report:\n%s\nvs\n%s", first.Text(), second.Text())
	}
}

// TestCacheEditInvalidatesExactlyAffectedCells: changing one grid axis
// value re-runs exactly the cells that see the new value; the rest stay
// cache hits.
func TestCacheEditInvalidatesExactlyAffectedCells(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(parse(t, durabilityGrid), Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(durabilityGrid, "[r2, r3]", "[r2, ec8+3]", 1)
	res, err := Run(parse(t, edited), Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// r2 x {constant, empirical} stay cached; ec8+3 x {constant, empirical}
	// are new.
	if res.Hits != 2 || res.Miss != 2 {
		t.Fatalf("edited axis: %d hits / %d misses, want 2/2", res.Hits, res.Miss)
	}
	for _, c := range res.Cells {
		wantCached := strings.HasPrefix(c.ID, "scheme=r2")
		if c.Cached != wantCached {
			t.Errorf("cell %s: cached=%v, want %v", c.ID, c.Cached, wantCached)
		}
	}
	// And a seed edit (a non-grid field every cell inherits) invalidates
	// everything.
	reseeded := strings.Replace(durabilityGrid, "seed: 9", "seed: 10", 1)
	res, err = Run(parse(t, reseeded), Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 0 || res.Miss != 4 {
		t.Fatalf("seed edit: %d hits / %d misses, want 0/4", res.Hits, res.Miss)
	}
}

// TestCacheCorruptEntryIsAMiss: a truncated or garbage cache file means
// re-execution, never a poisoned report or an error.
func TestCacheCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	f := parse(t, durabilityGrid)
	if _, err := Run(f, Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 4 {
		t.Fatalf("want 4 cache entries, got %d (%v)", len(entries), err)
	}
	if err := os.WriteFile(entries[0], []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(f, Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 3 || res.Miss != 1 {
		t.Fatalf("corrupt entry: %d hits / %d misses, want 3/1", res.Hits, res.Miss)
	}
}

// TestForceReexecutes: Force ignores hits but refreshes the entries.
func TestForceReexecutes(t *testing.T) {
	dir := t.TempDir()
	f := parse(t, durabilityGrid)
	if _, err := Run(f, Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(f, Options{CacheDir: dir, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 0 || res.Miss != 4 {
		t.Fatalf("force: %d hits / %d misses, want 0/4", res.Hits, res.Miss)
	}
}

// TestParallelByteEquality extends the repo's workers-1-vs-N contract to
// the campaign runner: per-cell summaries, logs, and the merged report
// are byte-identical at any worker count, cache on or off.
func TestParallelByteEquality(t *testing.T) {
	doc := `name: par
mode: faults
seed: 4
days: 1
output:
  log: true
grid:
  seed: [4, 5]
  failure.model: [constant, empirical]
`
	f := parse(t, doc)
	seq, err := Run(f, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(f, Options{Workers: 4, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Cells) != 4 || len(par.Cells) != 4 {
		t.Fatalf("cell counts: %d vs %d", len(seq.Cells), len(par.Cells))
	}
	for i := range seq.Cells {
		a, b := seq.Cells[i], par.Cells[i]
		if a.Summary != b.Summary {
			t.Errorf("cell %d (%s): summaries diverge across worker counts", i, a.ID)
		}
		if strings.Join(a.Log, "\n") != strings.Join(b.Log, "\n") {
			t.Errorf("cell %d (%s): event logs diverge across worker counts", i, a.ID)
		}
	}
	if seq.Text() != par.Text() {
		t.Fatal("merged reports diverge across worker counts")
	}
}

// TestDurabilityCellPhysics pins the orderings that make the
// durability-vs-cost grid meaningful: more redundancy buys more nines,
// costs more per usable TB; the empirical model (infant mortality +
// batch shocks) fails more media than the constant plateau.
func TestDurabilityCellPhysics(t *testing.T) {
	run := func(doc string) *DurabilityResult {
		t.Helper()
		f := parse(t, doc)
		res, err := RunDurability(f.Spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := "mode: durability\nseed: 2\ndurability:\n  disks: 1024\n  trials: 4\n  scheme: %s\n"
	r1 := run(strings.Replace(base, "%s", "r1", 1))
	r3 := run(strings.Replace(base, "%s", "r3", 1))
	ec := run(strings.Replace(base, "%s", "ec8+3", 1))
	if r1.LossIncidents == 0 {
		t.Fatal("r1 (no redundancy) must lose data under ~3.6%/yr AFR")
	}
	if r3.Nines <= r1.Nines {
		t.Errorf("r3 nines %.1f should beat r1 nines %.1f", r3.Nines, r1.Nines)
	}
	if r3.CapExPerUsableTB <= r1.CapExPerUsableTB {
		t.Errorf("r3 $/TB %.0f should exceed r1 $/TB %.0f", r3.CapExPerUsableTB, r1.CapExPerUsableTB)
	}
	if ec.CapExPerUsableTB >= r3.CapExPerUsableTB {
		t.Errorf("ec8+3 $/TB %.0f should undercut r3 $/TB %.0f", ec.CapExPerUsableTB, r3.CapExPerUsableTB)
	}
	if ec.Overhead != 11.0/8 || r3.Overhead != 3 {
		t.Errorf("overheads wrong: ec=%.3f r3=%.3f", ec.Overhead, r3.Overhead)
	}

	emp := run("mode: durability\nseed: 2\nfailure:\n  model: empirical\ndurability:\n  disks: 1024\n  trials: 4\n  scheme: r1\n")
	if emp.DiskFailures <= r1.DiskFailures {
		t.Errorf("empirical model sampled %d failures, constant %d — bathtub + batches should fail more media",
			emp.DiskFailures, r1.DiskFailures)
	}
}

// TestFidelityCell runs one (cheap) fidelity check through the cell path.
func TestFidelityCell(t *testing.T) {
	f := parse(t, "mode: fidelity\nfidelity:\n  check: table1-ustore-capex\n")
	cells, err := f.Cells()
	if err != nil {
		t.Fatal(err)
	}
	r, err := ExecCell(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Fidelity) != 1 || !r.Fidelity[0].Pass {
		t.Fatalf("fidelity cell: %+v", r.Fidelity)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("violations: %v", r.Violations)
	}
	if _, err := ExecCell(mustCell(t, "mode: fidelity\nfidelity:\n  check: no-such-check\n")); err == nil {
		t.Fatal("unknown check id must fail the cell")
	}
}

func mustCell(t *testing.T, doc string) spec.Cell {
	t.Helper()
	f, err := spec.Parse([]byte(doc), "cell.yaml")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := f.Cells()
	if err != nil || len(cells) != 1 {
		t.Fatalf("cells: %v", err)
	}
	return cells[0]
}

// TestReportGolden pins the merged report's exact bytes for a small
// durability campaign. This is the same artifact the campaign-smoke CI
// job diffs; regenerate with:
//
//	go test ./internal/campaign -run TestReportGolden -update
func TestReportGolden(t *testing.T) {
	f := parse(t, durabilityGrid)
	res, err := Run(f, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "durability_grid.report")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(res.Text()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if res.Text() != string(want) {
		t.Fatalf("report drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", res.Text(), want)
	}
}
