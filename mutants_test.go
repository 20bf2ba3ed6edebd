package ustore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A mutant is one deliberate bug and the check that must catch it: the exact
// text it replaces in one file, a command that must fail on the mutated
// tree, and regexps that failure's output must match. The regexps carry the
// positive assertions — which checker fired, how far the minimizer shrank
// the schedule — so a mutant killed for the wrong reason (a compile error, a
// different checker) still fails TestMutants.
type mutant struct {
	name     string
	file     string // relative to the repository root
	old, new string // old must occur in file exactly once
	// cmd is "go test PKG... [-run RE]" or "go run ./cmd/NAME ARGS...",
	// split on spaces. A go run entry is built, then run, and its output
	// ends with the exit status ("exit status 1").
	cmd  string
	want []string
}

// The checkers' planted bugs, shared by the entries that run them through
// a unit test and through the CLI.
var (
	// staleLease: an endpoint keeps exporting a space whose disk detached,
	// so after a failover two hosts serve one lease. Data audits stay green;
	// only the model checker sees it.
	staleLease = [2]string{
		"\t\tif ep.exports[space].DiskID == diskID {",
		"\t\tif false && ep.exports[space].DiskID == diskID {",
	}
	// quarantineBlind: the allocator stops skipping quarantined disks.
	quarantineBlind = [2]string{
		"\t\tif m.health.excluded(diskID) {\n\t\t\tcontinue",
		"\t\tif false {\n\t\t\tcontinue",
	}
	// skipRedrive: recovery declares interrupted slot moves done by bumping
	// the map epoch, without re-driving freeze, handoff, install and drop, so
	// records left on the source shard become unreachable.
	skipRedrive = [2]string{
		"\tdsts := make([]int, len(slots))",
		"\tnext := f.authMap.Clone(); next.Epoch++; for _, s := range slots { next.Slots[s] = f.pendingMoves[s]; delete(f.pendingMoves, s) }; f.authMap = next; f.broadcastMap(next, done); return; dsts := make([]int, len(slots))",
	}
)

var mutants = []mutant{
	{
		name: "stale-lease", file: "internal/core/endpoint.go", old: staleLease[0], new: staleLease[1],
		cmd: "go test ./internal/chaos -run ^TestHostCrashFailoverLinearizes$",
		want: []string{
			`model: .*still holds the lease`,
			`\(0 outside the model checker\)`, // metadata only
			`minimized \d+ -> [1-5] faults, still violating`,
		},
	},
	{
		name: "stale-lease-cli", file: "internal/core/endpoint.go", old: staleLease[0], new: staleLease[1],
		cmd: "go run ./cmd/ustore-chaos -days 2 -minimize",
		want: []string{
			`minimized schedule: \d+ of \d+ faults still violate`,
			`model +[1-9]\d* metadata ops checked`,
			// every violation is the model checker's lease report: metadata only
			`INVARIANT VIOLATIONS \(\d+\):\n(    \[.*\] model: .*still holds the lease.*\n)+exit status 1$`,
		},
	},
	{
		name: "quarantine-blind", file: "internal/core/master.go", old: quarantineBlind[0], new: quarantineBlind[1],
		cmd:  "go test ./internal/core -run ^TestGrayDiskQuarantineAndRelease$",
		want: []string{`quarantine invariant: core: 1 allocation\(s\) on quarantined disks \(first: disk\d+ \(service cold-svc0, state quarantined\)\)`},
	},
	{
		name: "quarantine-blind-chaos", file: "internal/core/master.go", old: quarantineBlind[0], new: quarantineBlind[1],
		cmd:  "go test ./internal/chaos -run ^TestGrayMitigatedRunHoldsQuarantine$",
		want: []string{`quarantine invariant`, `minimized \d+ -> \d+ faults, still violating:\n.*quarantine invariant`},
	},
	{
		name: "quarantine-blind-cli", file: "internal/core/master.go", old: quarantineBlind[0], new: quarantineBlind[1],
		cmd: "go run ./cmd/ustore-chaos -gray -mitigation -minimize",
		want: []string{
			`minimized schedule: \d+ of \d+ faults still violate`,
			`INVARIANT VIOLATIONS \(1\):\n.*quarantine invariant`, `exit status 1$`,
		},
	},
	{
		name: "skip-redrive", file: "internal/fleet/fleet.go", old: skipRedrive[0], new: skipRedrive[1],
		cmd: "go test ./internal/chaos -run ^TestFleetFaultStraddleHolds$",
		want: []string{
			`minimized fleet schedule: [12] of \d+ faults still violate:\n\s+0s move slot`, // at most 2, the move first
			`minimized violations:\n(.+\n)*.*model:`,
		},
	},
	{
		name: "skip-redrive-cli", file: "internal/fleet/fleet.go", old: skipRedrive[0], new: skipRedrive[1],
		cmd:  "go run ./cmd/ustore-chaos -fleet -units 16 -shards 4 -crashes 2 -partitions 1 -moves 2 -minimize",
		want: []string{`minimized fleet schedule: 2 of`, `move slot`, `exit status 1$`},
	},
	{
		// A write to a chunk with a lend out must copy first.
		name: "lent-chunk-written-in-place", file: "internal/disk/store.go",
		old: "\tcase c.lease != nil && c.lease.n > 0:", new: "\tcase false:",
		cmd:  "go test ./internal/disk ./internal/block -run ^(TestLentChunkNeverChanges|TestLentReadMatchesCopiedRead)$",
		want: []string{`--- FAIL: TestLentChunkNeverChanges`, `--- FAIL: TestLentReadMatchesCopiedRead`},
	},
	{
		name: "lease-release-keeps-count", file: "internal/disk/store.go",
		old: "\tif l.n--; l.n < 0 {", new: "\tif l.n < 0 {",
		cmd: "go test ./internal/disk ./internal/simnet -run ^(TestLentChunkNeverChanges|TestBlockIOReturnsEveryFrame|TestPoisonCatchesRetainedPayload)$",
		want: []string{
			`--- FAIL: TestLentChunkNeverChanges`, `--- FAIL: TestBlockIOReturnsEveryFrame`,
			`--- FAIL: TestPoisonCatchesRetainedPayload`,
		},
	},
	{
		// The reply must hold the lease until the initiator puts the frame.
		name: "read-reply-releases-on-send", file: "internal/block/target.go",
		old: "\t\t\tframe.Lease = lease", new: "\t\t\tlease.Release()",
		cmd: "go test ./internal/block ./internal/simnet -run ^(TestLentReadMatchesCopiedRead|TestPoisonCatchesRetainedPayload|TestOwnershipChaosGrayDay|TestOwnershipHDFS|TestOwnershipArchive)$",
		want: []string{
			`--- FAIL: TestLentReadMatchesCopiedRead`, `--- FAIL: TestPoisonCatchesRetainedPayload`,
			`--- FAIL: TestOwnershipChaosGrayDay`, `--- FAIL: TestOwnershipHDFS`, `--- FAIL: TestOwnershipArchive`,
		},
	},
}

// TestMutants applies each mutant through go's -overlay (the tree is never
// touched or copied) and requires its command to fail with the output its
// regexps describe. A mutant whose old text no longer occurs exactly once
// fails too: the code it broke has moved, and the entry must follow it.
func TestMutants(t *testing.T) {
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			out, killed, err := m.run(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !killed {
				t.Fatalf("mutant survived: %s passed\n%s", m.cmd, out)
			}
			for _, re := range m.want {
				if !regexp.MustCompile(re).MatchString(out) {
					t.Errorf("%s failed, but its output does not match %q", m.cmd, re)
				}
			}
			if t.Failed() {
				t.Logf("output:\n%s", out)
			}
		})
	}
}

// TestMutantOldTextMustBeUnique: an old text that is gone, or ambiguous,
// refuses to apply.
func TestMutantOldTextMustBeUnique(t *testing.T) {
	for _, old := range []string{"no such text in this file", "\t\t"} {
		m := mutant{file: "internal/core/endpoint.go", old: old}
		if _, _, _, err := m.apply(t.TempDir()); err == nil || !strings.Contains(err.Error(), "want exactly once") {
			t.Errorf("old text %q: err = %v, want a refusal", old, err)
		}
	}
}

// apply writes the mutated file into dir, under its own base name, and an
// overlay that swaps it in for the original; it returns the overlay's path
// and both files' absolute paths.
func (m mutant) apply(dir string) (overlay, orig, mutated string, err error) {
	src, err := os.ReadFile(m.file)
	if err != nil {
		return "", "", "", err
	}
	if n := bytes.Count(src, []byte(m.old)); n != 1 {
		return "", "", "", fmt.Errorf("%s: old text occurs %d times, want exactly once:\n%s", m.file, n, m.old)
	}
	mutated = filepath.Join(dir, filepath.Base(m.file))
	if err := os.WriteFile(mutated, bytes.Replace(src, []byte(m.old), []byte(m.new), 1), 0o644); err != nil {
		return "", "", "", err
	}
	if orig, err = filepath.Abs(m.file); err != nil {
		return "", "", "", err
	}
	js, err := json.Marshal(map[string]map[string]string{"Replace": {orig: mutated}})
	if err != nil {
		return "", "", "", err
	}
	overlay = filepath.Join(dir, "overlay.json")
	return overlay, orig, mutated, os.WriteFile(overlay, js, 0o644)
}

// run applies the mutant in dir and runs its command; it returns the
// combined output and whether the command failed (killed the mutant). With
// GOCOVERDIR set, as scripts/coverage-sweep.sh runs this test, a go run
// entry is built with -cover -coverpkg=./... and writes its counters there,
// so the functions only a broken build reaches still count as entered.
func (m mutant) run(dir string) (out string, killed bool, err error) {
	overlay, orig, mutated, err := m.apply(dir)
	if err != nil {
		return "", false, err
	}
	args := strings.Fields(m.cmd)
	var cmd *exec.Cmd
	switch {
	case len(args) > 2 && args[0] == "go" && args[1] == "test":
		cmd = exec.Command("go", append([]string{"test", "-count=1", "-overlay", overlay}, args[2:]...)...)
	case len(args) > 2 && args[0] == "go" && args[1] == "run":
		bin := filepath.Join(dir, filepath.Base(args[2]))
		build := []string{"build", "-overlay", overlay, "-o", bin}
		if os.Getenv("GOCOVERDIR") != "" {
			if strings.Count(m.old, "\n") != strings.Count(m.new, "\n") {
				return "", false, fmt.Errorf("a go run mutant must keep its file's line count, so its coverage merges with the clean builds'")
			}
			shim, err := coverShim(dir, orig, mutated)
			if err != nil {
				return "", false, err
			}
			build = append(build, "-cover", "-coverpkg=./...", "-toolexec", shim)
		}
		if out, err := exec.Command("go", append(build, args[2])...).CombinedOutput(); err != nil {
			return "", false, fmt.Errorf("building %s: %v\n%s", args[2], err, out)
		}
		cmd = exec.Command(bin, args[3:]...)
	default:
		return "", false, fmt.Errorf("command %q is neither go test nor go run", m.cmd)
	}
	b, runErr := cmd.CombinedOutput()
	if runErr != nil {
		return string(b) + runErr.Error(), true, nil
	}
	return string(b), false, nil
}

// coverShim writes a -toolexec wrapper that hands the cover tool the mutated
// file: go build -cover instruments a package from its original sources, not
// from their -overlay replacements, so without it the covered build would
// not be the mutant.
func coverShim(dir, orig, mutated string) (string, error) {
	shim := filepath.Join(dir, "cover-shim.sh")
	script := fmt.Sprintf("#!/bin/sh\nfor a do shift; [ \"$a\" = '%s' ] && a='%s'; set -- \"$@\" \"$a\"; done\nexec \"$@\"\n", orig, mutated)
	return shim, os.WriteFile(shim, []byte(script), 0o755)
}
