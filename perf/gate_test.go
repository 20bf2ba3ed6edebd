package main

import (
	"strings"
	"testing"
	"time"
)

func TestDigest(t *testing.T) {
	a := digestOf("summary", "log")
	if a != digestOf("summary", "log") {
		t.Errorf("digest is not a function of its input")
	}
	if len(a) != 64 {
		t.Errorf("digest %q is not a hex sha256", a)
	}
	// Part boundaries count: moving a byte across them changes the digest.
	if a == digestOf("summar", "ylog") || a == digestOf("summarylog") || a == digestOf("summary", "log", "") {
		t.Errorf("digest ignores part boundaries")
	}
}

func okRep() rep {
	return rep{out: &repOut{attempted: 10, ok: 9, p99: time.Millisecond, digest: digestOf("x")}}
}

func TestGate(t *testing.T) {
	if fails := gate([]rep{okRep(), okRep(), okRep()}); len(fails) != 0 {
		t.Errorf("identical clean reps failed the gate: %v", fails)
	}
	diverged := okRep()
	diverged.out.digest = digestOf("y")
	if fails := gate([]rep{okRep(), diverged}); len(fails) != 1 || !strings.Contains(fails[0], "rep 1 diverged") {
		t.Errorf("digest divergence: %v", fails)
	}
	counts := okRep()
	counts.out.ok = 8
	if fails := gate([]rep{okRep(), counts}); len(fails) != 1 {
		t.Errorf("count divergence: %v", fails)
	}
	violated := okRep()
	violated.out.violations = []string{"lost a write"}
	if fails := gate([]rep{okRep(), violated}); len(fails) != 1 || !strings.Contains(fails[0], "lost a write") {
		t.Errorf("violation: %v", fails)
	}
	empty := okRep()
	empty.out.p99 = 0
	if fails := gate([]rep{empty}); len(fails) != 1 || !strings.Contains(fails[0], "degenerate") {
		t.Errorf("degenerate run: %v", fails)
	}
}

func TestCheckRate(t *testing.T) {
	alloc, storm := findWorkload("fleet_alloc"), findWorkload("restore_storm")
	o := &repOut{ok: 15976, simSeconds: 6}
	if fails := checkRate(alloc, 2662.6666666666665, o); len(fails) != 0 {
		t.Errorf("matching rate failed: %v", fails)
	}
	if fails := checkRate(alloc, 2662.5, o); len(fails) != 1 {
		t.Errorf("mismatching rate passed: %v", fails)
	}
	if fails := checkRate(storm, 1, o); len(fails) != 0 {
		t.Errorf("a workload without a reference rate was checked: %v", fails)
	}
}
