package spec

import "testing"

// TestHashStableAcrossFormatting is the cache-invalidation contract: the
// hash is computed over the decoded, defaulted spec, so reformatting,
// reordering keys, comments, explicit defaults, and value-neutral quoting
// all map to the same hash — while changing any value changes it.
func TestHashStableAcrossFormatting(t *testing.T) {
	base := "mode: durability\nseed: 5\ndurability:\n  scheme: r3\n  disks: 256\n"
	same := []string{
		// Key order swapped at both levels.
		"durability:\n  disks: 256\n  scheme: r3\nseed: 5\nmode: durability\n",
		// Comments and blank lines.
		"# cmt\nmode: durability\n\nseed: 5\ndurability:\n  scheme: r3 # inline\n  disks: 256\n",
		// Defaults spelled out explicitly.
		"mode: durability\nseed: 5\ndays: 2\ndurability:\n  scheme: r3\n  disks: 256\n  trials: 4\n",
		// Quoted scalar strings where quoting is value-neutral.
		"mode: \"durability\"\nseed: 5\ndurability:\n  scheme: \"r3\"\n  disks: 256\n",
	}
	want := mustHash(t, base)
	for i, doc := range same {
		if got := mustHash(t, doc); got != want {
			t.Errorf("variant %d hashes %s, want %s (formatting must not invalidate)", i, got[:12], want[:12])
		}
	}
	diff := []string{
		"mode: durability\nseed: 6\ndurability:\n  scheme: r3\n  disks: 256\n",          // seed
		"mode: durability\nseed: 5\ndurability:\n  scheme: ec8+3\n  disks: 256\n",       // scheme
		"mode: durability\nseed: 5\ndurability:\n  scheme: r3\n  disks: 257\n",          // disks
		"mode: durability\nseed: 5\nname: x\ndurability:\n  scheme: r3\n  disks: 256\n", // name
		"mode: faults\nseed: 5\ndurability:\n  scheme: r3\n  disks: 256\n",              // mode
	}
	for i, doc := range diff {
		if got := mustHash(t, doc); got == want {
			t.Errorf("variant %d shares the hash despite a value change:\n%s", i, doc)
		}
	}
}

func mustHash(t *testing.T, doc string) string {
	t.Helper()
	f, err := Parse([]byte(doc), "h.yaml")
	if err != nil {
		t.Fatalf("parse %q: %v", doc, err)
	}
	cells, err := f.Cells()
	if err != nil || len(cells) != 1 {
		t.Fatalf("cells: %v (%d)", err, len(cells))
	}
	return cells[0].Hash
}

// TestHashIgnoresFilePathAndGrid: the file's name and how the grid was
// written don't reach the cell identity — a cell is its decoded values.
func TestHashIgnoresFilePathAndGrid(t *testing.T) {
	gridded := "mode: durability\ndurability:\n  disks: 128\ngrid:\n  durability.scheme: [r2, r3]\n"
	f, err := Parse([]byte(gridded), "a.yaml")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := f.Cells()
	if err != nil || len(cells) != 2 {
		t.Fatalf("cells: %v", err)
	}
	// The r3 cell must hash identically to a gridless document pinning r3,
	// parsed under a different file name.
	flat := "mode: durability\ndurability:\n  disks: 128\n  scheme: r3\n"
	if got := mustHash(t, flat); got != cells[1].Hash {
		t.Errorf("grid cell hash %s != equivalent flat spec hash %s", cells[1].Hash[:12], got[:12])
	}
	if cells[0].Hash == cells[1].Hash {
		t.Error("different scheme values share a hash")
	}
}

// TestHashEditOneAxisInvalidatesExactlyAffectedCells: editing one axis
// value must change only that axis's cells; the untouched cells keep
// their hashes (so a cached campaign re-runs exactly the edited column).
func TestHashEditOneAxisInvalidatesExactlyAffectedCells(t *testing.T) {
	v1 := "mode: durability\ngrid:\n  durability.scheme: [r2, r3]\n  failure.model: [constant, empirical]\n"
	v2 := "mode: durability\ngrid:\n  durability.scheme: [r2, ec8+3]\n  failure.model: [constant, empirical]\n"
	c1 := mustCells(t, v1)
	c2 := mustCells(t, v2)
	if len(c1) != 4 || len(c2) != 4 {
		t.Fatalf("want 4 cells each, got %d/%d", len(c1), len(c2))
	}
	// Cells 0,1 (scheme=r2) are untouched; cells 2,3 changed r3 -> ec8+3.
	for i := 0; i < 2; i++ {
		if c1[i].Hash != c2[i].Hash {
			t.Errorf("untouched cell %d (%s) was invalidated", i, c1[i].ID)
		}
	}
	for i := 2; i < 4; i++ {
		if c1[i].Hash == c2[i].Hash {
			t.Errorf("edited cell %d (%s) kept its hash", i, c2[i].ID)
		}
	}
}

func mustCells(t *testing.T, doc string) []Cell {
	t.Helper()
	f, err := Parse([]byte(doc), "g.yaml")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := f.Cells()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestCanonicalDeterministic: byte-identical canonical form on repeat
// decodes (this is what makes the on-disk cache key stable across runs
// and processes).
func TestCanonicalDeterministic(t *testing.T) {
	doc := "mode: fidelity\nfidelity:\n  check: table1-ustore-capex\n"
	a, err := Parse([]byte(doc), "x.yaml")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(doc), "x.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if string(Canonical(a.Spec)) != string(Canonical(b.Spec)) {
		t.Error("canonical form differs across decodes")
	}
	if Hash(a.Spec) != Hash(b.Spec) {
		t.Error("hash differs across decodes")
	}
}
