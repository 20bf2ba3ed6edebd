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
	// smoke marks the one cheap entry of its checker family that a plain
	// go test runs; USTORE_MUTANTS=all (CI's test job, the nightly race
	// run) runs every entry.
	smoke bool
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
		name: "stale-lease", smoke: true, file: "internal/core/endpoint.go", old: staleLease[0], new: staleLease[1],
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
		name: "quarantine-blind", smoke: true, file: "internal/core/master.go", old: quarantineBlind[0], new: quarantineBlind[1],
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
		name: "skip-redrive", smoke: true, file: "internal/fleet/fleet.go", old: skipRedrive[0], new: skipRedrive[1],
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
		name: "lent-chunk-written-in-place", smoke: true, file: "internal/disk/store.go",
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
	{
		// A page index must stay inside its page.
		name: "history-page-mask", smoke: true, file: "internal/model/history.go",
		old: "\tpageMask  = pageSize - 1", new: "\tpageMask  = pageSize",
		cmd:  "go test ./internal/model -run ^TestHistoryPageBoundaries$",
		want: []string{`--- FAIL: TestHistoryPageBoundaries`},
	},
	{
		// A retrier whose resend is armed must not serve another call.
		name: "retrier-recycled-while-armed", smoke: true, file: "internal/simnet/rpc.go",
		old: "\tif rt := pc.retry; rt != nil && !rt.armed {", new: "\tif rt := pc.retry; rt != nil {",
		cmd: "go test ./internal/simnet -run ^TestReplyDuringBackoffCompletesOnce$",
		want: []string{
			`--- FAIL: TestReplyDuringBackoffCompletesOnce`,
			`took the retrier whose resend is still armed`, `4 messages sent by 15\.2s, want 3`,
		},
	},
	{
		// A resend whose call already completed must not reach the wire.
		name: "retrier-fire-skips-pending-check", file: "internal/simnet/rpc.go",
		old: "\tif r.pending[rt.id] != rt.pc {", new: "\tif false {",
		cmd:  "go test ./internal/simnet -run ^TestReplyDuringBackoffCompletesOnce$",
		want: []string{`--- FAIL: TestReplyDuringBackoffCompletesOnce`, `[5-9] messages sent by 15\.2s, want 3`},
	},
	{
		// A Paxos wire record goes home only after its handler returns. The
		// plain run then reads zeroed records and the poisoned run poisoned
		// ones; when neither commits anything, the two logs agree.
		name: "wire-released-before-dispatch", smoke: true, file: "internal/paxos/paxos.go",
		old: "\t\tdefer w.Release()", new: "\t\tw.Release()",
		cmd:  "go test ./internal/paxos -run ^TestPoisonedWireRecordsSameLog$",
		want: []string{`--- FAIL: TestPoisonedWireRecordsSameLog`, `seed 0: (poisoned records changed the applied logs|only 0 commands applied)`},
	},
	{
		// A duplicated delivery needs a record of its own.
		name: "dup-shares-pooled-record", file: "internal/simnet/simnet.go",
		old: "\t\t\tagain.Payload = p.Dup()", new: "\t\t\tagain.Payload = p",
		cmd: "go test ./internal/simnet ./internal/paxos -run ^(TestDupGetsOwnPooledRecord|TestPoisonedWireRecordsSameLog)$",
		want: []string{
			`--- FAIL: TestDupGetsOwnPooledRecord`, `2 deliveries after 0 dups, want 2 after 1`,
			`--- FAIL: TestPoisonedWireRecordsSameLog`,
		},
	},
	{
		// A guarded op's coord callback still holds it: opDone must not
		// recycle it.
		name: "shardop-recycled-while-commit-pending", file: "internal/fleet/shard.go",
		old: "\tif op.guarded {\n\t\top.reply = nil", new: "\tif false {\n\t\top.reply = nil",
		cmd:  "go test ./internal/fleet -run ^TestCommitGuardAnswersOnce$",
		want: []string{`--- FAIL: TestCommitGuardAnswersOnce`, `guarded-\d+ was answered OK before its own commit landed`},
	},
	{
		// A volume op copies its request's fields when it is queued: the
		// record goes back to the router when the handler returns, so an op
		// that reads it later (here, one event later) reads an emptied one.
		name: "shard-keeps-request-record", file: "internal/fleet/shard.go",
		old:  "\top.volume, op.size, op.service = a.Volume, a.Size, a.Service\n",
		new:  "\tm.sched.FireAfter(0, func() { op.volume, op.size, op.service = a.Volume, a.Size, a.Service })\n",
		cmd:  "go test ./internal/fleet -run ^TestPoisonedRequestsSameRun$",
		want: []string{`--- FAIL: TestPoisonedRequestsSameRun`, `allocate vol-0000: fleet: Allocate vol-0000: coord: bad path: "/vol/"`},
	},
	{
		// A slot install files a record whose fragments sit on the source
		// shard's disks in the foreign set, or the migrate pass, which walks
		// only that set, never brings them home.
		name: "install-skips-foreign-set", file: "internal/fleet/shard.go",
		old: "\t\tm.putVol(id, rec)\n\t\tm.store.Create(volPath(id)", new: "\t\tm.vols[id] = rec\n\t\tm.store.Create(volPath(id)",
		cmd:  "go test ./internal/fleet -run ^TestSlotMoveStaleRetryAndMigration$",
		want: []string{`--- FAIL: TestSlotMoveStaleRetryAndMigration`, `capacity invariant: fleet: shard \d volume vol-move has a fragment on a foreign disk but is not in the foreign set`},
	},
	{
		// An answered op takes its commit guard out of the queue, or the
		// guard later answers whichever op reuses the record.
		name: "guard-left-armed", smoke: true, file: "internal/fleet/shard.go",
		old: "\t\top.guard.Cancel()\n", new: "",
		cmd:  "go test ./internal/fleet -run ^TestStaleGuardSparesReusedOp$",
		want: []string{`--- FAIL: TestStaleGuardSparesReusedOp`, `reused-\d+ was answered \[fleet: busy\] before its own guard fired`},
	},
	{
		// A chosen slot takes its Phase 2 timer out of the queue.
		name: "phase-timer-left-armed", file: "internal/paxos/paxos.go",
		old: "\t\tt.ev.Cancel()\n", new: "",
		cmd:  "go test ./internal/paxos -run ^TestChosenSlotsLeaveNoTimers$",
		want: []string{`--- FAIL: TestChosenSlotsLeaveNoTimers`, `2\d\d events pending after 200 commits, \d+ idle`},
	},
	{
		// Cancel's swap-remove must re-index the event it moves into the
		// hole, or a later Cancel of that event misses it.
		name: "wheel-remove-skips-reindex", smoke: true, file: "internal/simtime/simtime.go",
		old: "\tmoved.index = e.index\n", new: "",
		cmd:  "go test ./internal/simtime -run ^TestWheelMatchesReferenceHeap$",
		want: []string{`--- FAIL: TestWheelMatchesReferenceHeap`, `index out of range`, `simtime\.\(\*Scheduler\)\.wheelRemove`},
	},
	{
		// An emptied slot gives its array away, so its occupancy bit must go
		// with it.
		name: "emptied-slot-keeps-bit", file: "internal/simtime/simtime.go",
		old: "\ts.bitmap[idx>>6] &^= 1 << uint(idx&63)\n", new: "",
		cmd:  "go test ./internal/simtime -run ^TestWheelMatchesReferenceHeap$",
		want: []string{`--- FAIL: TestWheelMatchesReferenceHeap`, `index out of range`, `simtime\.\(\*Scheduler\)\.peekNext`},
	},
	{
		// Every change to a chunk's bytes gives it a new generation, or
		// the probe's memo calls changed bytes known equal.
		name: "chunk-change-keeps-generation", file: "internal/disk/store.go",
		old: "\ts.gen++\n\tc.gen, c.crcOK = s.gen, false\n", new: "\tc.crcOK = false\n",
		cmd: "go test ./internal/disk ./internal/chaos -run ^(TestGenerationFollowsEveryChange|TestProbeMemoCatchesRogueRewrite)$",
		want: []string{
			`--- FAIL: TestGenerationFollowsEveryChange`, `whole-chunk write: the bytes changed but the generation stayed`,
			`--- FAIL: TestProbeMemoCatchesRogueRewrite`, `\d+ of 160 probe reads reported the divergence`,
		},
	},
	{
		// A generation names the chunk's own bytes only, not a copy.
		name: "generation-ignores-alias", smoke: true, file: "internal/disk/store.go",
		old: "\tif !ok || &data[0] != &c.data[off%chunkSize] {", new: "\tif !ok {",
		cmd:  "go test ./internal/disk -run ^TestGenerationFollowsEveryChange$",
		want: []string{`--- FAIL: TestGenerationFollowsEveryChange`, `a copied read answers current`},
	},
	{
		// A verified generation holds for the version it was checked at.
		name: "probe-memo-ignores-version", file: "internal/chaos/harness.go",
		old: "chunkGen{st, gen, b.version}", new: "chunkGen{st, gen, b.verified.version}",
		cmd:  "go test ./internal/chaos -run ^TestProbeMemoCatchesLostAck$",
		want: []string{`--- FAIL: TestProbeMemoCatchesLostAck`, `\d+ of 160 probe reads reported the divergence`},
	},
	{
		// A node record holds its machine index, so Colocate must place a
		// node that has already registered too.
		name: "colocate-skips-registered-node", smoke: true, file: "internal/simnet/simnet.go",
		old: "\tn.table.node(node).mach = n.table.machine(machine)\n",
		new: "\tif nd := n.table.node(node); nd.net == nil {\n\t\tnd.mach = n.table.machine(machine)\n\t}\n",
		cmd: "go test ./internal/simnet -run ^TestRoutingIndependentOfColocateOrder$",
		want: []string{
			`--- FAIL: TestRoutingIndependentOfColocateOrder/plain`, `--- FAIL: TestRoutingIndependentOfColocateOrder/fabric`,
			`Colocate after Node routed`,
		},
	},
	{
		// A reply goes to the requester's address.
		name: "reply-to-own-addr", file: "internal/simnet/rpc.go",
		old: "\tr.send(to, payload,", new: "\tr.send(r.node.addr, payload,",
		cmd:  "go test ./internal/simnet -run ^(TestRPCBasic|TestAsyncRPCRepliesLater)$",
		want: []string{`--- FAIL: TestRPCBasic`, `result=<nil> err=simnet: rpc timeout`, `--- FAIL: TestAsyncRPCRepliesLater`},
	},
	{
		// The prune keeps a reply exactly dedupWindow IDs behind its
		// caller's newest.
		name: "prune-drops-window-edge", smoke: true, file: "internal/simnet/rpc.go",
		old: "s[k].id+dedupWindow < s[len(s)-1].id", new: "s[k].id+dedupWindow <= s[len(s)-1].id",
		cmd:  "go test ./internal/simnet -run ^TestDedupWindowPrunedOnlyEvery1024th$",
		want: []string{`--- FAIL: TestDedupWindowPrunedOnlyEvery1024th`, `duplicate at the window's edge: replies \[\{896 1025\}\]`},
	},
	{
		// Unit u's Paxos replicas draw their election jitter from the
		// unit's own stream, seeded seed^(1+u); drawing the scheduler's
		// moves every fleet's elections.
		name: "paxos-draws-scheduler-stream", smoke: true, file: "internal/fleet/fleet.go",
		old: "\t\t\tpc.Rand = unitRand[u]\n", new: "",
		cmd:  "go test ./internal/fleet -run ^TestUnitPaxosStreams$",
		want: []string{`--- FAIL: TestUnitPaxosStreams`, `seed 1: the scheduler's stream was drawn`},
	},
	{
		// An answered async request leaves the in-flight set, or a
		// duplicate after its cached reply is pruned is absorbed unanswered.
		name: "async-reply-stays-in-flight", file: "internal/simnet/rpc.go",
		old: "\t\trec.inflight = slices.Delete(rec.inflight, i, i+1)\n", new: "",
		cmd:  "go test ./internal/simnet -run ^TestDedupAsyncDuplicateAbsorbed$",
		want: []string{`--- FAIL: TestDedupAsyncDuplicateAbsorbed`, `duplicate after the prune: replies \[\], want one to request 1 from run 1025`},
	},
	{
		// Only a call's own deadline counts as its timeout: a handler's
		// error that wraps ErrTimeout is a remote error.
		name: "remote-timeout-counted", file: "internal/simnet/rpc.go",
		old: "\t\tcase err == ErrTimeout:", new: "\t\tcase errors.Is(err, ErrTimeout):",
		cmd:  "go test ./internal/simnet -run ^TestRemoteErrorIsHandlersValue$",
		want: []string{`--- FAIL: TestRemoteErrorIsHandlersValue`, `rpc_timeouts_total = 1 after a handler's wrapped timeout, want 0`},
	},
	{
		// A client IO counts its pending remount as a reference, or the
		// op callback recycles the record and the remount's completion
		// drives a record that no longer holds a mount.
		name: "io-recycled-before-remount", smoke: true, file: "internal/core/clientlib.go",
		old: "\tio.refs++\n\tio.cl.remount(", new: "\tio.cl.remount(",
		cmd:  "go test ./internal/core -run ^TestHostFailureRecovery$",
		want: []string{`--- FAIL: TestHostFailureRecovery`, `nil pointer dereference`, `core\.\(\*clientIO\)\.attempt`},
	},
	{
		// Each dispatch pass fires only what it took out of the queues, or
		// a pass after a re-entrant Grant re-fires the last pass's requests.
		name: "fire-buffer-kept-across-passes", file: "internal/policy/admission.go",
		old: "\t\ta.fire = a.fire[:0]\n", new: "",
		cmd:  "go test ./internal/policy -run ^TestAdmissionReentrantPassesFireOnce$",
		want: []string{`--- FAIL: TestAdmissionReentrantPassesFireOnce`, `nil pointer dereference`, `policy\.\(\*Admission\)\.dispatch`},
	},
}

// TestMutants applies each mutant through go's -overlay (the tree is never
// touched or copied) and requires its command to fail with the output its
// regexps describe. A mutant whose old text no longer occurs exactly once
// fails too: the code it broke has moved, and the entry must follow it.
//
// Each entry costs a rebuild of its packages, so a plain go test runs the
// smoke entries only and checks that every other entry still applies;
// USTORE_MUTANTS=all runs them all.
func TestMutants(t *testing.T) {
	all := os.Getenv("USTORE_MUTANTS") == "all"
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			if !m.smoke && !all {
				if _, _, _, err := m.apply(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				return
			}
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
