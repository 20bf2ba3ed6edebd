package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the two middle values for an even count).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance rule for this benchmark is written in. Needs len(xs) >= 2.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	at := func(i int) float64 {
		j := i * (len(s) + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*(len(s)+1) - 4*j // outside 0..4 once j was clamped: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// worseBy is the share of base by which now is worse (positive) or better
// (negative), given the metric's direction.
func worseBy(lowerIsBetter bool, base, now float64) float64 {
	d := (now - base) / math.Abs(base)
	if lowerIsBetter {
		return d
	}
	return -d
}
