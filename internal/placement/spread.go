package placement

import (
	"math"
	"sort"
)

// Level selects the failure domain two fragments of one volume must never
// share. Levels nest by blast radius: a host is the smallest (its disks
// re-home after failover), a hub takes its whole disk group with it, a
// deploy unit is one fabric, and a rack shares power and uplinks.
type Level int

// Spread levels, smallest domain first.
const (
	LevelHost Level = iota
	LevelHub
	LevelUnit
	LevelRack
)

// levelNames names each Level for error messages.
var levelNames = [...]string{LevelHost: "host", LevelHub: "hub", LevelUnit: "unit", LevelRack: "rack"}

// Location places a disk in the failure-domain hierarchy. Rack, Unit and
// Hub are static wiring; Host is the current (dynamic) attachment.
type Location struct {
	Rack string
	Unit string
	Hub  string
	Host string
}

// Domain returns the disk's failure-domain key at the given level. Keys
// are fully qualified (a hub key embeds its unit and rack) so identical
// leaf names in different units never collide.
func (l Location) Domain(level Level) string {
	switch level {
	case LevelRack:
		return l.Rack
	case LevelUnit:
		return l.Rack + "/" + l.Unit
	case LevelHub:
		return l.Rack + "/" + l.Unit + "/" + l.Hub
	default:
		return l.Rack + "/" + l.Unit + "/~" + l.Host
	}
}

// SpreadOptions parameterizes a Spread call.
type SpreadOptions struct {
	// Level is the failure domain no two chosen fragments (nor any Exclude
	// entry) may share.
	Level Level
	// Exclude lists domains (at Level) already occupied by the volume's
	// surviving fragments — repair must place around them.
	Exclude []string
	// SpinBudget, when non-nil, maps a unit's domain key (LevelUnit) to
	// how many more disks it may spin up. Spun-down disks in units with no
	// remaining budget are skipped unless nothing else fits; the
	// OverBudget counter in the result reports such forced picks. Spread
	// only reads the map; the caller's budget is never modified.
	SpinBudget map[string]int
}

// SpreadResult reports a Spread decision.
type SpreadResult struct {
	// Disks are the chosen disk IDs, in pick order.
	Disks []DiskView
	// OverBudget counts picks that had to spin up a disk in a unit whose
	// spin budget was exhausted (placement preferred anything else first).
	OverBudget int
}

// Spread chooses n disks from candidates such that no two share a failure
// domain at opts.Level. Candidates must be pre-filtered (alive, enough
// free space) and sorted by ID. Within the hard domain constraint the
// greedy pick prefers, in order: a rack not yet holding a fragment, a
// spinning disk (or a spun-down one whose unit still has spin budget),
// and the most free space; ties break on disk ID. It returns as many
// disks as it could place (len < n means the topology cannot spread that
// wide).
//
// Spread is Index.Spread over an index built from candidates for this one
// call; a placer that decides repeatedly over the same disks keeps an
// Index instead.
func Spread(candidates []DiskView, n int, opts SpreadOptions) SpreadResult {
	var res SpreadResult
	if n <= 0 || len(candidates) == 0 {
		return res
	}
	ix := NewIndex(candidates, opts.SpinBudget)
	// Candidates are pre-filtered, so any amount of free space qualifies.
	rows, over := ix.Spread(nil, n, math.MinInt64, opts.Level, opts.Exclude)
	res.OverBudget = over
	if len(rows) > 0 {
		res.Disks = make([]DiskView, len(rows))
		for i, r := range rows {
			res.Disks[i] = ix.disks[r]
		}
	}
	return res
}

// SortViews sorts candidate views by disk ID (the deterministic order
// PickSingle and Spread require).
func SortViews(views []DiskView) {
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
}
