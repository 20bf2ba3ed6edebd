package chaos

import (
	"cmp"
	"strings"
)

// targetShape says which Fault fields name a family's target and how the
// event log renders them.
type targetShape int

const (
	targetOne      targetShape = iota // A: a host, disk, hub or machine
	targetPair                        // the machine pair A<->B
	targetGrayDisk                    // disk A, or (A == "") the disk under workload replica Copy, resolved at apply time
	targetBlock                       // block Block of workload replica Copy
	targetStorms                      // disk A, hit by Copy retry storms
)

// family is the one declaration of a fault family. A window family has an
// opening and a closing kind and is tracked in the harness's open-window
// registry from one to the other; a point event (close == open, no key) only
// injects. Everything the harness does with a fault — naming it, logging it,
// tracing its window, applying it, healing what a truncated schedule left
// open — reads this row.
type family struct {
	open, close         FaultKind
	openName, closeName string      // FaultKind.String
	key                 string      // window-key prefix (trace-span registry order)
	span                string      // name of the trace span covering the open window
	target              targetShape // which Fault fields identify the window
	rate                string      // label Fault.String gives the opener's Rate; "" = none
	net                 bool        // moves the quiet-point clock; open = no master-count check
	gray                bool        // open = probe reads count as degraded-phase samples
	inject, heal        func(h *harness, f Fault) error
}

// families lists every fault family in drain order: the drain phase heals
// open windows family by family in this order, targets ascending within one.
var families = []family{
	{open: FaultHostCrash, close: FaultHostRestore, openName: "host-crash", closeName: "host-restore",
		key: "host", span: "host-down",
		inject: func(h *harness, f Fault) error { h.c.CrashHost(f.A); return nil },
		heal:   func(h *harness, f Fault) error { h.c.RestoreHost(f.A); return nil }},
	{open: FaultDiskFail, close: FaultDiskReplace, openName: "disk-fail", closeName: "disk-replace",
		key: "disk", span: "disk-failed",
		inject: func(h *harness, f Fault) error { return h.c.FailDisk(f.A) },
		heal: func(h *harness, f Fault) error {
			err := h.c.ReplaceDisk(f.A)
			h.markWiped(f.A)
			h.scheduleRebuild(f.A)
			return err
		}},
	{open: FaultHubFail, close: FaultHubReplace, openName: "hub-fail", closeName: "hub-replace",
		key: "hub", span: "hub-failed",
		inject: func(h *harness, f Fault) error { return h.c.FailHub(f.A) },
		heal:   func(h *harness, f Fault) error { return h.c.ReplaceHub(f.A) }},
	{open: FaultLinkCut, close: FaultLinkHeal, openName: "link-cut", closeName: "link-heal",
		key: "cut", span: "link-cut", target: targetPair, net: true,
		inject: func(h *harness, f Fault) error { h.c.Net.CutMachines(f.A, f.B); return nil },
		heal:   func(h *harness, f Fault) error { h.c.Net.HealMachines(f.A, f.B); return nil }},
	{open: FaultLinkLoss, close: FaultLinkLossEnd, openName: "link-loss", closeName: "link-loss-end",
		key: "loss", span: "link-loss", target: targetPair, rate: "p=", net: true,
		inject: func(h *harness, f Fault) error { h.c.Net.SetMachineLossRate(f.A, f.B, f.Rate); return nil },
		heal:   func(h *harness, f Fault) error { h.c.Net.SetMachineLossRate(f.A, f.B, 0); return nil }},
	{open: FaultLinkDup, close: FaultLinkDupEnd, openName: "link-dup", closeName: "link-dup-end",
		key: "dup", span: "link-dup", target: targetPair, rate: "p=", net: true,
		inject: func(h *harness, f Fault) error { h.c.Net.SetMachineDupRate(f.A, f.B, f.Rate); return nil },
		heal:   func(h *harness, f Fault) error { h.c.Net.SetMachineDupRate(f.A, f.B, 0); return nil }},
	{open: FaultIsolate, close: FaultRejoin, openName: "isolate", closeName: "rejoin",
		key: "isolate", span: "isolated", net: true,
		inject: func(h *harness, f Fault) error { h.c.Net.IsolateMachine(f.A); return nil },
		heal:   func(h *harness, f Fault) error { h.c.Net.RejoinMachine(f.A); return nil }},
	{open: FaultCorrupt, close: FaultCorrupt, openName: "corrupt", target: targetBlock,
		inject: func(h *harness, f Fault) error {
			r := h.replicas[f.Copy%len(h.replicas)]
			blk := f.Block % len(r.blocks)
			h.c.Disks[r.diskID].CorruptSector(r.offset + int64(blk)*BlockSize)
			return nil
		}},
	{open: FaultDiskDegrade, close: FaultDiskRecover, openName: "disk-degrade", closeName: "disk-recover",
		key: "degrade", span: "disk-degraded", target: targetGrayDisk, rate: "sev=", gray: true,
		inject: func(h *harness, f Fault) error { return h.c.DegradeDisk(f.A, f.Rate) },
		heal:   func(h *harness, f Fault) error { return h.c.RecoverDisk(f.A) }},
	{open: FaultLinkFlap, close: FaultLinkFlap, openName: "link-flap", target: targetStorms,
		inject: func(h *harness, f Fault) error { return h.c.FlapLink(f.A, f.Copy) }},
	{open: FaultLinkDowngrade, close: FaultLinkRestore, openName: "link-downgrade", closeName: "link-restore",
		key: "linkdown", span: "link-downgraded", target: targetGrayDisk, rate: "sev=", gray: true,
		inject: func(h *harness, f Fault) error { return h.c.DowngradeLink(f.A, f.Rate) },
		heal:   func(h *harness, f Fault) error { return h.c.RestoreLink(f.A) }},
	{open: FaultBrownout, close: FaultBrownoutEnd, openName: "brownout", closeName: "brownout-end",
		key: "brownout", span: "host-brownout", rate: "sev=", gray: true,
		inject: func(h *harness, f Fault) error { h.c.BrownoutHost(f.A, f.Rate); return nil },
		heal:   func(h *harness, f Fault) error { h.c.EndBrownout(f.A); return nil }},
}

// familyOf finds the row that declares a kind and whether the kind opens it
// (a point event only ever opens); i < 0 for a kind no row declares.
func familyOf(k FaultKind) (i int, opens bool) {
	for i := range families {
		if k == families[i].open {
			return i, true
		}
		if k == families[i].close {
			return i, false
		}
	}
	return -1, false
}

// windowID identifies one open fault window: the family's row and the
// target fields its shape uses.
type windowID struct {
	fam  int
	a, b string
}

// windowOf returns the ID of the window of family i that f opens or closes.
func windowOf(i int, f Fault) windowID {
	if families[i].target != targetPair {
		f.B = ""
	}
	return windowID{i, f.A, f.B}
}

// compare orders windows the way the drain phase heals them: by family row,
// then target (pairs by A, then B).
func (w windowID) compare(o windowID) int {
	return cmp.Or(cmp.Compare(w.fam, o.fam), strings.Compare(w.a, o.a), strings.Compare(w.b, o.b))
}

// spanKey orders the trace spans of windows still open at drain: they end
// sorted by this string.
func (w windowID) spanKey() string {
	if families[w.fam].target == targetPair {
		return families[w.fam].key + ":" + w.a + "|" + w.b
	}
	return families[w.fam].key + ":" + w.a
}
