package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ustore/internal/spec"
)

// chaosCmd drives run in-process and returns what the command printed.
func chaosCmd(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	var out, errs bytes.Buffer
	status = run(args, &out, &errs)
	return out.String(), errs.String(), status
}

func writeSpec(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.yaml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagsAndSpecSameRun: a flag line and the spec file saying the same
// thing are one run — byte-identical stdout and exit status in every mode.
func TestFlagsAndSpecSameRun(t *testing.T) {
	cases := []struct {
		name  string
		flags []string
		doc   string
		extra []string // run-shaping flags both sides take
	}{
		{"faults", []string{"-seed", "3", "-days", "0.25"},
			"mode: faults\nseed: 3\ndays: 0.25\n", []string{"-schedule"}},
		{"gray-mitigation", []string{"-seed", "3", "-days", "0.5", "-gray", "-mitigation"},
			"mode: faults\nseed: 3\ndays: 0.5\nfaults:\n  gray: true\n  mitigation: true\n", nil},
		{"traffic", []string{"-tenants", "-storm", "-protect", "-seed", "2"},
			"mode: traffic\nseed: 2\ntraffic:\n  storm: true\n  protect: true\n", nil},
		{"fleet-faults", []string{"-fleet", "-units", "8", "-shards", "2", "-crashes", "1", "-moves", "1", "-log"},
			"mode: fleet\nfleet:\n  units: 8\n  shards: 2\n  crashes: 1\n  slot_moves: 1\noutput:\n  log: true\n", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			byFlags, _, fs := chaosCmd(t, append(c.flags, c.extra...)...)
			bySpec, errs, ss := chaosCmd(t, append([]string{"-spec", writeSpec(t, c.doc)}, c.extra...)...)
			if fs != 0 || ss != 0 {
				t.Fatalf("exit status: flags %d, spec %d (%s)", fs, ss, errs)
			}
			if byFlags != bySpec {
				t.Fatalf("flag run and spec run differ:\n--- flags\n%s--- spec\n%s", byFlags, bySpec)
			}
			if !strings.Contains(byFlags, "invariants: all held") {
				t.Fatalf("run printed no verdict:\n%s", byFlags)
			}
		})
	}
}

// TestSpecFlagOverride: flags apply on top of -spec (the parent binary
// silently dropped every flag but -schedule and -log once -spec was given),
// and the run-shaping flags work on a spec run as on a flag run.
func TestSpecFlagOverride(t *testing.T) {
	path := writeSpec(t, "mode: faults\nseed: 3\ndays: 0.25\nfailure:\n  model: empirical\n")
	base, _, _ := chaosCmd(t, "-spec", path)
	over, errs, status := chaosCmd(t, "-spec", path, "-seed", "4")
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errs)
	}
	if !strings.HasPrefix(base, "ustore-chaos: seed 3, ") || !strings.HasPrefix(over, "ustore-chaos: seed 4, ") {
		t.Fatalf("headers:\n%s\n%s", firstLine(base), firstLine(over))
	}
	if !strings.Contains(over, "\nseed 4, 0.25 days: ") {
		t.Fatalf("-seed 4 did not reach the run:\n%s", over)
	}

	// -no-checksums -minimize on a spec run: silent corruption violates, the
	// minimizer shrinks it, the metrics file is written, exit status 1.
	metrics := filepath.Join(t.TempDir(), "m.json")
	min, errs, status := chaosCmd(t, "-spec", path, "-no-checksums", "-minimize", "-metrics-out", metrics)
	if status != 1 || !strings.Contains(min, "minimized schedule: ") || !strings.Contains(firstLine(min), "no-checksums") {
		t.Fatalf("spec + -no-checksums -minimize: exit %d (%s)\n%s", status, errs, min)
	}
	if b, err := os.ReadFile(metrics); err != nil || !bytes.Contains(b, []byte("simnet_msgs_delivered_total")) {
		t.Fatalf("metrics file of a spec run: %v (%d bytes)", err, len(b))
	}

	// A traffic spec prints the header -tenants prints.
	traffic, _, _ := chaosCmd(t, "-spec", writeSpec(t, "mode: traffic\n"))
	if want := "ustore-chaos: seed 1, 2 days, faults: none, tenants"; firstLine(traffic) != want {
		t.Fatalf("traffic header %q, want %q", firstLine(traffic), want)
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// TestBadCombinationsExit2: every flag that does not fit the run's mode, and
// every bad value, exits 2 with a line naming the flag, before anything runs.
func TestBadCombinationsExit2(t *testing.T) {
	grid := writeSpec(t, "mode: faults\ngrid:\n  seed: [1, 2]\n")
	fleet := writeSpec(t, "mode: fleet\n")
	cases := []struct {
		args []string
		want string // must appear on stderr
	}{
		{[]string{"-storm"}, "-storm needs traffic mode"},
		{[]string{"-slo-out", "s.txt"}, "-slo-out needs traffic mode"},
		{[]string{"-crashes", "2"}, "-crashes needs fleet mode"},
		{[]string{"-fleet-bench", "1,4"}, "-fleet-bench needs fleet mode"},
		{[]string{"-fleet", "-gray"}, "-gray needs faults mode"},
		{[]string{"-spec", fleet, "-mitigation"}, "-mitigation needs faults mode"},
		{[]string{"-fleet", "-no-checksums"}, "-no-checksums needs faults mode"},
		{[]string{"-fleet", "-trace-out", "t.json"}, "-trace-out needs faults or traffic mode"},
		{[]string{"-tenants", "-minimize"}, "-minimize needs faults or fleet mode"},
		{[]string{"-tenants", "-fleet"}, "-tenants cannot combine with -fleet"},
		{[]string{"-seeds", "2", "-minimize"}, "-minimize works on a single seed"},
		{[]string{"-seeds", "0"}, "-seeds must be >= 1"},
		{[]string{"-days", "soon"}, `-days: flags: field days: cannot parse "soon" as a number`},
		{[]string{"-days", "0"}, "days must be positive"},
		{[]string{"-fleet", "-fault-window", "90s"}, "flag provided but not defined: -fault-window"},
		{[]string{"-fleet", "-moves", "2"}, "fleet.slot_moves needs fleet.shards >= 2"},
		{[]string{"-fleet", "-shards", "4", "-crashes", "2", "-moves", "2", "-minimize"}, "fleet.units 8 is below 12"},
		{[]string{"-fleet", "-units", "2", "-shards", "1"}, "fleet.units 2 is below 3"},
		{[]string{"-spec", grid}, "has a parameter grid; run it with ustore-campaign"},
		{[]string{"-spec", writeSpec(t, "mode: durability\n")}, "run under ustore-campaign"},
		{[]string{"-spec", filepath.Join(t.TempDir(), "missing.yaml")}, "missing.yaml"},
	}
	for _, c := range cases {
		stdout, stderr, status := chaosCmd(t, c.args...)
		if status != 2 || !strings.Contains(stderr, c.want) || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %q", c.args, status, stdout, stderr, c.want)
		}
	}
}

// TestJSONSpecRefused: JSON is not a spec format. -spec x.json exits 2 with
// one file:line:col line that names the supported format.
func TestJSONSpecRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.json")
	if err := os.WriteFile(path, []byte(`{"mode": "faults", "seed": 3}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, status := chaosCmd(t, "-spec", path)
	want := path + ":1:1: JSON specs are not supported; write the spec in the YAML subset"
	if status != 2 || stdout != "" || !strings.Contains(stderr, want) || strings.Count(stderr, "\n") != 1 {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 and one line containing %q", status, stdout, stderr, want)
	}
}

// TestSweepParallelMatchesSequential is the determinism contract of the one
// sweep loop, for a cluster and a fleet scenario: -seeds 4 prints the same
// bytes (header, per-seed event logs and summaries, in seed order) and
// writes the same per-seed metrics files on 4 workers as on 1. Each seed
// gets its own recorder, so every file holds that run's traffic — fleet
// sweeps included, which used to write no file at all. Run under -race this
// doubles as the data-race test over concurrent simulations.
func TestSweepParallelMatchesSequential(t *testing.T) {
	for _, c := range []struct {
		name     string
		first    int64
		scenario []string
	}{
		{"faults", 2, []string{"-seed", "2", "-days", "0.25"}},
		{"fleet", 21, []string{"-fleet", "-seed", "21", "-units", "8", "-shards", "2", "-unit-loss"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			sweep := func(workers string) string {
				args := append([]string{"-seeds", "4", "-parallel", workers, "-log",
					"-metrics-out", filepath.Join(dir, "w"+workers+".json")}, c.scenario...)
				stdout, stderr, status := chaosCmd(t, args...)
				if status != 0 {
					t.Fatalf("-parallel %s: exit %d: %s", workers, status, stderr)
				}
				return stdout
			}
			seq, par := sweep("1"), sweep("4")
			if seq != par {
				t.Fatalf("stdout differs between -parallel 1 (%d bytes) and -parallel 4 (%d bytes)", len(seq), len(par))
			}
			for seed := c.first; seed < c.first+4; seed++ {
				if !strings.Contains(seq, fmt.Sprintf("seed %d", seed)) {
					t.Errorf("seed %d missing from the sweep output", seed)
				}
				a, errA := os.ReadFile(filepath.Join(dir, fmt.Sprintf("w1.seed%d.json", seed)))
				b, errB := os.ReadFile(filepath.Join(dir, fmt.Sprintf("w4.seed%d.json", seed)))
				if errA != nil || errB != nil {
					t.Fatalf("seed %d metrics files: %v, %v", seed, errA, errB)
				}
				if !bytes.Equal(a, b) {
					t.Errorf("seed %d metrics differ between worker counts (%d vs %d bytes)", seed, len(a), len(b))
				}
				if !bytes.Contains(a, []byte("msgs_delivered_total")) {
					t.Errorf("seed %d recorder saw no delivered messages", seed)
				}
			}
		})
	}
}

// TestAliasesAreSpecLeaves: every scenario flag names a settable spec field,
// and is bare exactly when that field is a bool — Override takes "true" and
// refuses "1" — so a renamed or removed field cannot leave a dead flag
// behind. A mode switch is a bare flag that sets mode to a valid mode.
func TestAliasesAreSpecLeaves(t *testing.T) {
	override := func(path, text string) error {
		f, err := spec.Parse([]byte("mode: faults\n"), "flags")
		if err != nil {
			t.Fatal(err)
		}
		return f.Override(path, text)
	}
	for name, a := range aliases {
		errTrue, errOne := override(a.path, "true"), override(a.path, "1")
		switch {
		case errTrue != nil && errOne != nil:
			t.Errorf("-%s: %s is not a spec field: %v", name, a.path, errOne)
		case a.mode != "":
			if !a.bare || !slices.Contains(spec.Modes, a.mode) || override(a.path, a.mode) != nil {
				t.Errorf("-%s: a mode switch must be bare and set %s to a mode, not %q", name, a.path, a.mode)
			}
		case a.bare != (errTrue == nil && errOne != nil):
			t.Errorf("-%s: bare=%v, but %s takes true (%v) and 1 (%v)", name, a.bare, a.path, errTrue, errOne)
		}
	}
}
