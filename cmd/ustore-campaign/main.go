// Command ustore-campaign compiles a declarative experiment spec
// (YAML subset: topology, workload mix, fault schedule, failure model,
// protection policies) and sweeps its parameter grid across the
// simulation engines, reusing cached cell results keyed by content hash.
//
//	ustore-campaign -spec examples/experiments.yaml            # EXPERIMENTS.md in one command
//	ustore-campaign -spec examples/durability.yaml             # durability-vs-cost grid
//	ustore-campaign -spec s.yaml -cache .cache -workers 8      # parallel, cached
//	ustore-campaign -spec s.yaml -force                        # re-execute, refresh cache
//	ustore-campaign -spec s.yaml -out report.txt               # write the merged report
//
// The report is byte-deterministic: same spec file, same bytes, at any
// -workers count and whether cells executed or replayed from cache (the
// hit/miss tally goes to stderr, never into the report). A cell's cache
// key is the sha256 of its decoded, defaulted spec, so reformatting the
// file or reordering keys never invalidates a result, while changing any
// value that reaches the simulation always does.
//
// Exit status 1 means at least one cell reported an invariant violation
// or a failed fidelity check.
package main

import (
	"flag"
	"fmt"
	"os"

	"ustore/internal/campaign"
	"ustore/internal/spec"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		specPath = flag.String("spec", "", "experiment spec file (YAML subset; required)")
		cacheDir = flag.String("cache", ".campaign-cache", "cell result cache directory (\"\" disables caching)")
		workers  = flag.Int("workers", 0, "cell worker pool size (<1 = one per CPU; reports are byte-identical at any count)")
		force    = flag.Bool("force", false, "re-execute every cell even on a cache hit (entries are refreshed)")
		outPath  = flag.String("out", "", "write the merged campaign report to this file (default stdout)")
		cellsOut = flag.Bool("cells", false, "list the expanded grid cells and their content hashes, then exit")
	)
	flag.Parse()
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "ustore-campaign: -spec is required (see examples/)")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ustore-campaign: %v\n", err)
		return 2
	}
	f, err := spec.Parse(data, *specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ustore-campaign: %v\n", err)
		return 2
	}
	if *cellsOut {
		cells, err := f.Cells()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ustore-campaign: %v\n", err)
			return 2
		}
		for _, c := range cells {
			id := c.ID
			if id == "" {
				id = "(single cell)"
			}
			fmt.Printf("%3d  %s  %s\n", c.Index, c.Hash[:12], id)
		}
		return 0
	}

	res, err := campaign.Run(f, campaign.Options{CacheDir: *cacheDir, Workers: *workers, Force: *force})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ustore-campaign: %v\n", err)
		return 2
	}
	// Cache traffic is observability, not a result: stderr only, so the
	// report bytes are identical between a computed and a replayed run.
	fmt.Fprintf(os.Stderr, "ustore-campaign: %d cells: %d executed, %d cache hits\n",
		len(res.Cells), res.Miss, res.Hits)

	text := res.Text()
	if *outPath == "" {
		fmt.Print(text)
	} else if err := os.WriteFile(*outPath, []byte(text), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "ustore-campaign: writing report: %v\n", err)
		return 2
	}
	if res.Violations() > 0 {
		return 1
	}
	return 0
}
