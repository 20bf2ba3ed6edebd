package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runChild re-executes this binary for one workload, so every workload
// has a process of its own (own peak RSS, no heap carried over), passes its
// output through, and returns the result line it ended with.
func runChild(cfg config, w *workloadDef) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self,
		"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seed-offset", strconv.FormatInt(cfg.seedOffset, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace, "-trace-out", cfg.traceOut)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	last := ""
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20) // a traced result line is ~10 KB
	for sc.Scan() {
		last = sc.Text()
		fmt.Println(last)
	}
	_, _ = io.Copy(io.Discard, stdout) // drain after a scan error so Wait cannot block
	if err := cmd.Wait(); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || !res.Correct {
		return result{}, fmt.Errorf("%s: no result line (last line %q): %v", w.name, last, err)
	}
	return res, nil
}

// runSet runs every workload once, one process each.
func runSet(cfg config) (map[string]result, error) {
	set := map[string]result{}
	for i := range workloads {
		res, err := runChild(cfg, &workloads[i])
		if err != nil {
			return nil, err
		}
		set[workloads[i].name] = res
	}
	return set, nil
}

// printTable prints every metric of a set by name and unit, one column per
// workload.
func printTable(names []string, units map[string]string, set map[string]result) {
	fmt.Printf("\n%-42s %-10s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %16s", w.name)
	}
	fmt.Println()
	for _, n := range names {
		fmt.Printf("%-42s %-10s", n, units[n])
		for _, w := range workloads {
			fmt.Printf(" %16.4f", set[w.name].Metrics[n].Value)
		}
		fmt.Println()
	}
}

func runAll(cfg config) error {
	set, err := runSet(cfg)
	if err != nil {
		return err
	}
	var names []string
	units := map[string]string{}
	if cfg.trace {
		for _, m := range perLayer {
			names, units[m.name] = append(names, m.name), m.unit
		}
	} else {
		for _, m := range endToEnd {
			names, units[m.name] = append(names, m.name), m.unit
		}
	}
	printTable(names, units, set)
	if !cfg.trace {
		fmt.Println()
		for _, m := range endToEnd {
			fmt.Printf("%-14s %-8s %s is better, bound %.1f%%: %s\n", m.name, m.unit, direction(m.lower), 100*m.bound, m.define)
		}
	}
	return nil
}

// exceeds reports whether two readings of one metric differ, in either
// direction, by more than the metric's bound.
func exceeds(m metricDef, a, b float64) (float64, bool) {
	d := math.Abs(worseBy(m.lower, a, b))
	if back := math.Abs(worseBy(m.lower, b, a)); back > d {
		d = back
	}
	return d, d > m.bound
}

// selfcheck runs the end-to-end set twice back to back on the same commit
// and holds the two to the benchmark's own bounds.
func selfcheck(cfg config) error {
	first, err := runSet(cfg)
	if err != nil {
		return err
	}
	second, err := runSet(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("\nselfcheck: two runs of the same commit, per metric\n")
	fmt.Printf("%-14s %-16s %16s %16s %9s %7s\n", "workload", "metric", "first", "second", "differ", "bound")
	bad := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := first[w.name].Metrics[m.name].Value, second[w.name].Metrics[m.name].Value
			d, over := exceeds(m, a, b)
			mark := ""
			if over {
				mark = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-14s %-16s %16.4f %16.4f %8.2f%% %6.1f%%%s\n", w.name, m.name, a, b, 100*d, 100*m.bound, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) moved by more than their bound between two runs of the same commit", bad)
	}
	fmt.Println("selfcheck: every metric within its bound")
	return nil
}
