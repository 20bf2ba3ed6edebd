package spec

import (
	"strings"
	"testing"
)

// FuzzSpecParse holds the spec parser to its contract under arbitrary
// input: it must never panic, and every rejection must carry a position
// ("file:line:col:") or at minimum the file name. Accepted documents
// must round-trip through grid expansion and hashing without panicking
// either, and hashing must be deterministic.
//
// The seed corpus covers the interesting regions: valid specs, unknown
// fields, type mismatches, grids, deep indentation, and
// syntax the subset rejects.
func FuzzSpecParse(f *testing.F) {
	seeds := []string{
		// Valid documents.
		"mode: faults\n",
		"mode: faults\nseed: 42\ndays: 1\n",
		sampleYAML,
		"mode: traffic\ntraffic:\n  storm: true\n  protect: true\n",
		"mode: fleet\nfleet:\n  units: 4\n  shards: 2\n",
		"mode: fidelity\nfidelity:\n  check: table1-ustore-capex\n",
		"mode: durability\nfailure:\n  model: empirical\n  ure_bits: spec\n",
		"mode: fleet\nfleet:\n  units: 2\n  shards: 1\ngrid:\n  seed:\n    - 1\n    - 2\n",
		"mode: faults\nname: \"tab\\there\"\n",
		"mode: faults\ngrid:\n  seed: [1, 2]\n  faults.pairs: [2, 4]\n",
		"mode: faults\nname: \"quoted # name\"\n",
		// Unknown fields and type mismatches.
		"mode: faults\nbogus: 1\n",
		"mode: faults\nfaults:\n  pears: 4\n",
		"mode: faults\nseed: lots\n",
		"mode: faults\nfaults:\n  disks: 3\n",
		"mode: faults\nfailure:\n  ure_bits: sometimes\n",
		"mode: faults\nseed: \"lots\"\n",
		// Syntax stress.
		"mode: faults\nfaults:\n\tdisks: true\n",
		"mode: faults\nname: &anchor x\n",
		"mode: faults\nname: 'single'\n",
		"mode: faults\nname: |\n  block\n",
		"a:\n  b:\n    c:\n      d: 1\n",
		"- just\n- a\n- list\n",
		"mode: faults\ngrid:\n  seed: [[1]]\n",
		"mode: faults\ngrid:\n  seed: []\n",
		"\"quoted key\": 1\n",
		"key:value\n",
		"mode: faults\nname: \"unterminated\n",
		"mode: faults\nname: \"bad \\q escape\"\n",
		"mode: faults\n  stray: indent\n",
		"mode: faults\nfaults:\n  disks: true\n  disks: false\n",
		"{", "", "\x00", "\xff\xfe", strings.Repeat(" ", 100), strings.Repeat("a:\n", 50),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data, "fuzz.yaml")
		if err != nil {
			msg := err.Error()
			if !strings.Contains(msg, "fuzz.yaml") {
				t.Fatalf("rejection without the file position: %q", msg)
			}
			return
		}
		cells, err := file.Cells()
		if err != nil {
			if !strings.Contains(err.Error(), "fuzz.yaml") {
				t.Fatalf("cell rejection without the file position: %q", err)
			}
			return
		}
		for _, c := range cells {
			if len(c.Hash) != 64 {
				t.Fatalf("cell %q: malformed hash %q", c.ID, c.Hash)
			}
			if c.Hash != Hash(c.Spec) {
				t.Fatalf("cell %q: hash not deterministic", c.ID)
			}
			if err := c.Spec.Validate(); err != nil {
				t.Fatalf("accepted cell fails validation: %v", err)
			}
		}
	})
}
