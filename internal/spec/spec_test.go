package spec

import (
	"errors"
	"strings"
	"testing"

	"ustore/internal/faults"
)

const sampleYAML = `# durability-vs-cost sweep
name: durability-grid
mode: durability
seed: 7
failure:
  model: empirical
  ure_bits: observed
durability:
  scheme: r3
  disks: 512
  trials: 2
grid:
  durability.scheme: [r2, r3, ec8+3]
  failure.model: [constant, empirical]
`

func TestParseYAMLSpec(t *testing.T) {
	f, err := Parse([]byte(sampleYAML), "sample.yaml")
	if err != nil {
		t.Fatal(err)
	}
	s := f.Spec
	if s.Name != "durability-grid" || s.Mode != "durability" || s.Seed != 7 {
		t.Fatalf("base fields wrong: %+v", s)
	}
	if s.Failure.Model != "empirical" || s.Failure.UREBits != faults.ObservedUREBits {
		t.Fatalf("failure section wrong: %+v", s.Failure)
	}
	if s.Durability.Disks != 512 || s.Durability.Trials != 2 {
		t.Fatalf("durability section wrong: %+v", s.Durability)
	}
	// Defaults fill what the document leaves out.
	if s.Durability.DiskTB != 4 || s.Days != 2 || !s.Faults.Disks {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if len(f.Axes) != 2 || f.Axes[0].Path != "durability.scheme" || f.Axes[1].Name != "model" {
		t.Fatalf("axes wrong: %+v", f.Axes)
	}
}

func TestGridExpansion(t *testing.T) {
	f, err := Parse([]byte(sampleYAML), "sample.yaml")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := f.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("want 3x2=6 cells, got %d", len(cells))
	}
	// Document axis order, last axis fastest.
	wantIDs := []string{
		"scheme=r2,model=constant", "scheme=r2,model=empirical",
		"scheme=r3,model=constant", "scheme=r3,model=empirical",
		"scheme=ec8+3,model=constant", "scheme=ec8+3,model=empirical",
	}
	seen := map[string]bool{}
	for i, c := range cells {
		if c.ID != wantIDs[i] {
			t.Errorf("cell %d: ID %q, want %q", i, c.ID, wantIDs[i])
		}
		if seen[c.Hash] {
			t.Errorf("cell %d: duplicate hash %s", i, c.Hash)
		}
		seen[c.Hash] = true
		if c.Index != i {
			t.Errorf("cell %d: Index %d", i, c.Index)
		}
	}
	if cells[4].Spec.Durability.Scheme != "ec8+3" || cells[4].Spec.Failure.Model != "constant" {
		t.Fatalf("override not applied: %+v", cells[4].Spec)
	}
	// Non-gridded fields stay at the document's values in every cell.
	for _, c := range cells {
		if c.Spec.Durability.Disks != 512 || c.Spec.Seed != 7 {
			t.Fatalf("cell %s lost base values: %+v", c.ID, c.Spec)
		}
	}
}

// TestParseJSONSpec: JSON is not a spec format. A JSON document is refused
// with an error that wraps ErrJSON, points at the opening brace, and names
// the format that is supported — not a YAML parse error about braces.
func TestParseJSONSpec(t *testing.T) {
	doc := "\n  {\"mode\": \"fleet\", \"seed\": 3}\n"
	_, err := Parse([]byte(doc), "sample.json")
	if !errors.Is(err, ErrJSON) {
		t.Fatalf("JSON spec: err = %v, want ErrJSON", err)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "sample.json:2:3: ") || !strings.Contains(msg, "YAML subset") {
		t.Fatalf("JSON spec error %q: want sample.json:2:3 naming the YAML subset", msg)
	}
}

// TestPositionalErrors holds the whole reject path to "always position":
// each bad document must fail with file:line:col pointing at the problem.
func TestPositionalErrors(t *testing.T) {
	cases := []struct {
		name, doc, wantPos, wantMsg string
	}{
		{"unknown top field", "mode: faults\nbogus: 1\n", "spec.yaml:2:1", "unknown field \"bogus\""},
		{"unknown nested field", "mode: faults\nfaults:\n  pears: 4\n", "spec.yaml:3:3", "unknown field \"pears\" in faults"},
		{"type mismatch int", "mode: faults\nseed: lots\n", "spec.yaml:2:7", "cannot parse \"lots\" as an integer"},
		{"type mismatch bool", "mode: faults\nfaults:\n  disks: 3\n", "spec.yaml:3:10", "expected true or false"},
		{"quoted bool rejected", "mode: faults\nfaults:\n  disks: \"true\"\n", "spec.yaml:3:10", "got the string"},
		{"scalar for section", "mode: faults\nfaults: on\n", "spec.yaml:2:9", "expected nested keys"},
		{"tab indent", "mode: faults\nfaults:\n\tdisks: true\n", "spec.yaml:3:1", "tab in indentation"},
		{"duplicate key", "mode: faults\nmode: traffic\n", "spec.yaml:2:1", "duplicate key"},
		{"missing mode", "seed: 4\n", "spec.yaml", "missing the required field \"mode\""},
		{"bad mode value", "mode: sideways\n", "spec.yaml", "unknown mode"},
		{"grid not a list", "mode: faults\ngrid:\n  seed: 4\n", "spec.yaml:3:9", "expected a list of values"},
		{"grid nested list", "mode: faults\ngrid:\n  seed: [[1]]\n", "spec.yaml:3:9", "nested flow lists"},
		{"bad ure_bits", "mode: faults\nfailure:\n  ure_bits: sometimes\n", "spec.yaml:3:13", "\"spec\", \"observed\", or \"off\""},
		{"unsupported anchor", "mode: faults\nname: &a x\n", "spec.yaml:2:7", "unsupported YAML syntax"},
		{"json trailing", `{"mode": "faults"} {`, "sample.json:1:1", "JSON specs are not supported"},
		{"json unknown field", "{\n \"mode\": \"faults\",\n \"bogus\": 1\n}", "sample.json:1:1", "JSON specs are not supported"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			name := "spec.yaml"
			if strings.HasPrefix(c.doc, "{") {
				name = "sample.json"
			}
			_, err := Parse([]byte(c.doc), name)
			if err == nil {
				t.Fatalf("doc accepted:\n%s", c.doc)
			}
			if !strings.Contains(err.Error(), c.wantMsg) {
				t.Errorf("error %q does not mention %q", err, c.wantMsg)
			}
			if !strings.Contains(err.Error(), c.wantPos) {
				t.Errorf("error %q lacks position %q", err, c.wantPos)
			}
		})
	}
}

func TestSchemeParsing(t *testing.T) {
	cases := []struct {
		scheme   string
		width    int
		tolerate int
		overhead float64
		ok       bool
	}{
		{"r3", 3, 2, 3, true},
		{"r1", 1, 0, 1, true},
		{"ec8+3", 11, 3, 11.0 / 8, true},
		{"ec4+2", 6, 2, 1.5, true},
		{"r0", 0, 0, 0, false},
		{"r17", 0, 0, 0, false},
		{"ec8", 0, 0, 0, false},
		{"ec0+3", 0, 0, 0, false},
		{"raid6", 0, 0, 0, false},
		{"", 0, 0, 0, false},
	}
	for _, c := range cases {
		w, tol, err := ParseScheme(c.scheme)
		if c.ok != (err == nil) {
			t.Errorf("%q: ok=%v, err=%v", c.scheme, c.ok, err)
			continue
		}
		if !c.ok {
			continue
		}
		if w != c.width || tol != c.tolerate {
			t.Errorf("%q: got (%d,%d), want (%d,%d)", c.scheme, w, tol, c.width, c.tolerate)
		}
		if ov, _ := SchemeOverhead(c.scheme); ov != c.overhead {
			t.Errorf("%q: overhead %.3f, want %.3f", c.scheme, ov, c.overhead)
		}
	}
}

func TestValidateRejectsBadValues(t *testing.T) {
	for _, doc := range []string{
		"mode: faults\ndays: 0\n",
		"mode: faults\nfaults:\n  pairs: 0\n",
		"mode: durability\ndurability:\n  scheme: raid6\n",
		"mode: durability\ndurability:\n  trials: 0\n",
		"mode: fleet\nfleet:\n  units: 0\n",
		"mode: fleet\nfleet:\n  units: 8\n  shards: 2\n  crashes: -1\n",
		"mode: fleet\nfleet:\n  units: 8\n  shards: 1\n  slot_moves: 2\n",
		"mode: faults\nfailure:\n  model: empirical\n  age_years: 0\n",
		"mode: faults\nfailure:\n  model: psychic\n",
	} {
		if _, err := Parse([]byte(doc), "bad.yaml"); err == nil {
			t.Errorf("accepted invalid spec:\n%s", doc)
		}
	}
}

func TestCommentsAndQuoting(t *testing.T) {
	doc := "mode: faults # trailing comment\nname: \"a # not-a-comment\"\nseed: 9\n"
	f, err := Parse([]byte(doc), "c.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if f.Spec.Name != "a # not-a-comment" || f.Spec.Seed != 9 {
		t.Fatalf("comment stripping broke values: %+v", f.Spec)
	}
}

// TestFileOverride: an override is the grid's per-cell operation applied to
// the base document. It reaches the field like a document key would, rejects
// what the decoder rejects (with the decoder's own error), and leaves value
// rules to Validate, which spans fields.
func TestFileOverride(t *testing.T) {
	parse := func() *File {
		f, err := Parse([]byte("mode: fleet\nseed: 3\nfleet:\n  units: 4\n"), "base.yaml")
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := parse()
	for _, kv := range [][2]string{{"seed", "9"}, {"fleet.slot_moves", "2"}, {"fleet.shards", "4"}, {"output.log", "true"}} {
		if err := f.Override(kv[0], kv[1]); err != nil {
			t.Fatalf("override %s=%s: %v", kv[0], kv[1], err)
		}
	}
	s := f.Spec
	if s.Seed != 9 || s.Fleet.SlotMoves != 2 || s.Fleet.Shards != 4 || !s.Output.Log || s.Fleet.Units != 4 {
		t.Fatalf("overrides not applied on top of the document: %+v", s)
	}
	// slot_moves arrived before shards made it legal; only the final state
	// is judged.
	if err := s.Validate(); err != nil {
		t.Fatalf("final spec: %v", err)
	}
	// The same values spelled in a document hash the same.
	doc, err := Parse([]byte("mode: fleet\nseed: 9\nfleet:\n  units: 4\n  shards: 4\n  slot_moves: 2\noutput:\n  log: true\n"), "doc.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if Hash(doc.Spec) != Hash(s) {
		t.Fatalf("overridden spec and the equivalent document hash differently")
	}

	for _, c := range []struct{ path, value, want string }{
		{"fleet.unitz", "4", `base.yaml: unknown field "unitz" in fleet`},
		{"nosuch", "1", `base.yaml: unknown field "nosuch" in spec`},
		{"fleet.units", "many", `base.yaml: field fleet.units: cannot parse "many" as an integer`},
		{"fleet.unit_loss", "1", `base.yaml: field fleet.unit_loss: expected true or false, got "1"`},
		{"fleet", "x", `base.yaml: override "fleet": cannot override a whole section`},
		{"traffic", "x", `base.yaml: section traffic: expected nested keys, got a scalar`},
		{"seed.x", "1", `base.yaml: override "seed.x": seed is a scalar, not a section`},
		{"fleet..units", "1", `base.yaml: override "fleet..units": empty path segment`},
	} {
		err := parse().Override(c.path, c.value)
		if err == nil || err.Error() != c.want {
			t.Errorf("override %s=%s: got %v, want %s", c.path, c.value, err, c.want)
		}
	}
}
