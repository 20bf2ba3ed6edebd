package main

import (
	"io"
	"strings"
	"testing"
)

func TestParseFlagsDriverForm(t *testing.T) {
	// The driver's spelling: double dashes, every flag present.
	c, err := parseFlags(strings.Fields("--workload fleet_churn --seed 7 --seconds 20 --trace 1 -seed-offset 3"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.workload != "fleet_churn" || c.seed != 7 || c.seedOffset != 3 || c.seconds != 20 || !c.trace || c.selfcheck {
		t.Errorf("parsed %+v", c)
	}
	c, err = parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.workload != "" || c.seed != 0 || c.seedOffset != 0 || c.seconds != benchmarkRunSeconds || c.trace {
		t.Errorf("defaults %+v", c)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	for _, args := range []string{
		"-workload nope",
		"-trace 2",
		"-seconds 0",
		"-seed-offset -1",
		"-seed x",
		"-selfcheck -trace 1",
		"-selfcheck -workload fleet_alloc",
		"-workload fleet_alloc extra",
		"-no-such-flag",
	} {
		if _, err := parseFlags(strings.Fields(args), io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}

func TestRepsFor(t *testing.T) {
	for seconds, want := range map[int]int{1: 3, 14: 3, 15: 3, 20: 4, 25: 5, 30: 6, 60: 8, 600: 8} {
		if got := repsFor(seconds); got != want {
			t.Errorf("repsFor(%d) = %d, want %d", seconds, got, want)
		}
	}
}
