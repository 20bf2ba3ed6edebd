package campaign

import (
	"fmt"
	"math"
	"strings"

	"ustore/internal/bench"
	"ustore/internal/runner"
	"ustore/internal/spec"
)

// Options parameterizes a campaign run.
type Options struct {
	// CacheDir is the result cache. "" disables caching entirely.
	CacheDir string
	// Workers sizes the cell worker pool (runner.Workers semantics:
	// <= 0 means GOMAXPROCS). Reports are byte-identical at any width.
	Workers int
	// Force re-executes every cell even on a cache hit (the entries are
	// refreshed).
	Force bool
}

// CellResult is one executed (or cache-replayed) grid cell. The struct
// is exactly what the cache stores — Cached itself stays out of the
// serialized form and out of the report text, so a replayed campaign's
// report is byte-identical to the freshly computed one.
type CellResult struct {
	Index int    `json:"index"`
	ID    string `json:"id,omitempty"` // "scheme=r3,model=empirical"
	Hash  string `json:"hash"`
	Name  string `json:"name,omitempty"`
	Mode  string `json:"mode"`
	Seed  int64  `json:"seed"`

	Summary    string   `json:"summary"`
	Violations []string `json:"violations,omitempty"`
	Log        []string `json:"log,omitempty"`

	Durability *DurabilityResult `json:"durability,omitempty"`
	Fidelity   []FidelityResult  `json:"fidelity,omitempty"`

	Cached bool `json:"-"`
}

// FidelityResult is one paper-fidelity check outcome inside a
// fidelity-mode cell.
type FidelityResult struct {
	ID    string  `json:"id"`
	What  string  `json:"what"`
	Paper float64 `json:"paper"`
	Want  float64 `json:"want"`
	Got   float64 `json:"got"`
	Tol   float64 `json:"tol"`
	Pass  bool    `json:"pass"`
}

// Result is a finished campaign: every cell in grid order plus the cache
// traffic counts (which are observability only — they never reach the
// report text).
type Result struct {
	Name  string
	Spec  string // spec file path, for the report header
	Cells []CellResult
	Hits  int
	Miss  int
}

// Run expands the spec file's grid and executes every cell on the worker
// pool, consulting the cache first. Cell order in the result is grid
// order regardless of completion order.
func Run(f *spec.File, o Options) (*Result, error) {
	cells, err := f.Cells()
	if err != nil {
		return nil, err
	}
	out, err := runner.MapErr(len(cells), o.Workers, func(i int) (CellResult, error) {
		c := cells[i]
		if o.CacheDir != "" && !o.Force {
			if r, ok := loadCache(o.CacheDir, c.Hash); ok {
				r.Cached = true
				r.Index = c.Index // position is the grid's, not the entry's
				r.ID = c.ID
				return *r, nil
			}
		}
		r, err := ExecCell(c)
		if err != nil {
			return CellResult{}, fmt.Errorf("cell %d (%s): %w", c.Index, c.ID, err)
		}
		if o.CacheDir != "" {
			if err := storeCache(o.CacheDir, r); err != nil {
				return CellResult{}, err
			}
		}
		return *r, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Name: f.Spec.Name, Spec: f.Path, Cells: out}
	for _, c := range out {
		if c.Cached {
			res.Hits++
		} else {
			res.Miss++
		}
	}
	return res, nil
}

// ExecCell runs one cell against the engine its mode selects.
func ExecCell(c spec.Cell) (*CellResult, error) {
	s := c.Spec
	r := &CellResult{
		Index: c.Index, ID: c.ID, Hash: c.Hash,
		Name: s.Name, Mode: s.Mode, Seed: s.Seed,
	}
	switch s.Mode {
	case "faults", "traffic", "fleet":
		sc, err := Compile(s)
		if err != nil {
			return nil, err
		}
		out, err := sc.Run(nil)
		if err != nil {
			return nil, err
		}
		r.Summary = out.Summary
		r.Violations = out.Violations
		if s.Output.Log {
			r.Log = out.Log
		}
	case "fidelity":
		results, err := runFidelity(s.Fidelity.Check)
		if err != nil {
			return nil, err
		}
		r.Fidelity = results
		r.Summary = fidelityText(results)
		for _, fr := range results {
			if !fr.Pass {
				r.Violations = append(r.Violations,
					fmt.Sprintf("fidelity %s: got %.4g, want %.4g ±%.0f%%", fr.ID, fr.Got, fr.Want, fr.Tol*100))
			}
		}
	case "durability":
		dr, err := RunDurability(s)
		if err != nil {
			return nil, err
		}
		r.Durability = dr
		r.Summary = dr.Text()
	default:
		return nil, fmt.Errorf("unknown mode %q", s.Mode)
	}
	return r, nil
}

// runFidelity measures the named paper-fidelity check, or the full suite
// when id is "".
func runFidelity(id string) ([]FidelityResult, error) {
	var out []FidelityResult
	for _, c := range bench.FidelityChecks() {
		if id != "" && c.ID != id {
			continue
		}
		got, err := c.Measure()
		if err != nil {
			return nil, fmt.Errorf("fidelity %s: %w", c.ID, err)
		}
		out = append(out, FidelityResult{
			ID: c.ID, What: c.What, Paper: c.Paper, Want: c.Want, Got: got, Tol: c.Tol,
			Pass: math.Abs(got-c.Want) <= c.Tol*math.Abs(c.Want),
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no fidelity check %q (see internal/bench.FidelityChecks)", id)
	}
	return out, nil
}

func fidelityText(results []FidelityResult) string {
	var b strings.Builder
	for _, r := range results {
		mark := "ok  "
		if !r.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "%s %-26s %s: got %.4g, want %.4g ±%.0f%% (paper %.4g)\n",
			mark, r.ID, r.What, r.Got, r.Want, r.Tol*100, r.Paper)
	}
	return b.String()
}

// Violations counts invariant violations and failed checks across the
// campaign (a nonzero count is the CLI's exit-1 condition).
func (r *Result) Violations() int {
	n := 0
	for _, c := range r.Cells {
		n += len(c.Violations)
	}
	return n
}

// Text renders the campaign report. Byte-deterministic by construction:
// every line derives from cell results (which are themselves
// byte-deterministic per spec hash), never from wall clocks, cache
// traffic, worker counts, or completion order.
func (r *Result) Text() string {
	var b strings.Builder
	name := r.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(&b, "campaign %s: %d cells (%s)\n", name, len(r.Cells), r.Spec)
	for _, c := range r.Cells {
		id := c.ID
		if id == "" {
			id = "(single cell)"
		}
		fmt.Fprintf(&b, "\n--- cell %d: %s [%s seed=%d spec=%s]\n", c.Index, id, c.Mode, c.Seed, c.Hash[:12])
		sum := strings.TrimRight(c.Summary, "\n")
		if sum != "" {
			for _, line := range strings.Split(sum, "\n") {
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
		for _, v := range c.Violations {
			fmt.Fprintf(&b, "    VIOLATION: %s\n", v)
		}
	}
	fmt.Fprintf(&b, "\n%d cells, %d violations\n", len(r.Cells), r.Violations())
	return b.String()
}
