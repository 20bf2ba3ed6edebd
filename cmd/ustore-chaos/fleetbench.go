package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"ustore/internal/chaos"
)

// runFleetBench measures allocation throughput at each shard count in
// benchList (comma-separated) on a fixed fleet, emitting a JSON document to
// benchOut (stdout when empty). Offered load scales with capacity: 8
// saturating closed-loop clients per shard.
func runFleetBench(stdout io.Writer, say func(string, ...any) int, seed int64, units int, benchList, benchOut string) int {
	const (
		warmup = 3 * time.Second
		window = 6 * time.Second
	)
	type point struct {
		Shards       int     `json:"shards"`
		Clients      int     `json:"clients"`
		AllocsPerSec float64 `json:"allocs_per_sec"`
		Speedup      float64 `json:"speedup_vs_1_shard"`
	}
	doc := struct {
		Bench     string  `json:"bench"`
		Seed      int64   `json:"seed"`
		Units     int     `json:"units"`
		WarmupSec float64 `json:"warmup_sec"`
		WindowSec float64 `json:"window_sec"`
		Points    []point `json:"points"`
	}{Bench: "fleet-alloc-shard-scaling", Seed: seed, Units: units,
		WarmupSec: warmup.Seconds(), WindowSec: window.Seconds()}
	for _, fld := range strings.Split(benchList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(fld))
		if err != nil || n < 1 {
			return say("bad -fleet-bench shard count %q", fld)
		}
		v, err := chaos.MeasureFleetAlloc(chaos.FleetOptions{
			Seed:       seed,
			Units:      units,
			Shards:     n,
			Clients:    8 * n,
			VolumeSize: 8 << 20,
		}, warmup, window)
		if err != nil {
			return say("fleet bench %d shards: %v", n, err)
		}
		p := point{Shards: n, Clients: 8 * n, AllocsPerSec: v, Speedup: 1}
		if len(doc.Points) > 0 {
			p.Speedup = v / doc.Points[0].AllocsPerSec
		}
		doc.Points = append(doc.Points, p)
		say("fleet bench %2d shards: %.0f allocs/sec", n, v)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return say("%v", err)
	}
	out = append(out, '\n')
	if benchOut == "" {
		fmt.Fprint(stdout, string(out))
		return 0
	}
	if err := os.WriteFile(benchOut, out, 0o644); err != nil {
		return say("writing bench: %v", err)
	}
	return 0
}
