package main

import (
	"os"
	"regexp"
	"testing"
)

// The checked-in BENCHMARK.json must be what the catalogues say.
// `go run ./perf -describe > BENCHMARK.json` regenerates it.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != benchmarkJSON() {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with `go run ./perf -describe > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
}

// The limits the benchmark contract puts on names, units and counts.
func TestCatalogueWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(kind, n, u string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside the contract", kind, n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s %s: unit %q is outside the contract", kind, n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		use("workload", w.name, "")
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics", len(endToEnd))
	}
	setup := false
	for _, m := range endToEnd {
		use("end-to-end metric", m.name, m.unit)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		if m.name == "setup_s" {
			setup = m.unit == "s" && m.lower
		}
	}
	if !setup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	for _, m := range perLayer {
		use("per-layer metric", m.name, m.unit)
	}
	if benchmarkRunSeconds < 1 || benchmarkRunSeconds > 60 {
		t.Errorf("run_seconds %d", benchmarkRunSeconds)
	}
}
