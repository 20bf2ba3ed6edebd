package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9, 7, 8, 1, 2}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing should be NaN")
	}
}

// Expected values are what Python's statistics.quantiles(xs, n=4) prints,
// the rule the benchmark's acceptance is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{5.5, 5.7, 5.4, 5.6}, 5.425, 5.675},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{7, 7, 7, 7}); got != 0 {
		t.Errorf("spread of a constant = %v", got)
	}
}

func TestBoundComparison(t *testing.T) {
	if got := worseBy(true, 10, 11); !near(got, 0.1) {
		t.Errorf("lower-is-better 10 -> 11: worse by %v, want 0.1", got)
	}
	if got := worseBy(true, 10, 9); !near(got, -0.1) {
		t.Errorf("lower-is-better 10 -> 9: worse by %v, want -0.1", got)
	}
	if got := worseBy(false, 100, 90); !near(got, 0.1) {
		t.Errorf("higher-is-better 100 -> 90: worse by %v, want 0.1", got)
	}
	wall := metricDef{name: "wall_s", lower: true, bound: 0.08}
	if d, over := exceeds(wall, 5.0, 5.3); over || !near(d, 0.06) {
		t.Errorf("5.0 vs 5.3 at an 8%% bound: differ %v, exceeds %v", d, over)
	}
	// Either order of the two readings must trip the bound.
	if _, over := exceeds(wall, 5.0, 5.5); !over {
		t.Errorf("5.0 vs 5.5 should exceed 8%%")
	}
	if _, over := exceeds(wall, 5.5, 5.0); !over {
		t.Errorf("5.5 vs 5.0 should exceed 8%%")
	}
	ok := metricDef{name: "ok_pct", lower: false, bound: 0.02}
	if _, over := exceeds(ok, 100, 97); !over {
		t.Errorf("ok_pct 100 vs 97 should exceed 2%%")
	}
}
