package workload

import "sort"

// Streaming quantile estimation. The SLO report's percentiles are exact
// (sloRow keeps every completed latency until the report is built); P2Quantile
// is the O(1)-memory alternative the benchmark's estimator probe measures:
// the P² algorithm (Jain & Chlamtac, CACM 1985), five markers per tracked
// quantile, adjusted with a piecewise-parabolic fit on every observation.
// Estimates are approximate. The update is pure float arithmetic over the
// observation sequence, so identical sequences give identical estimates.

// P2Quantile estimates a single quantile p in (0,1) online.
type P2Quantile struct {
	p float64
	n int

	// first holds the initial observations until 5 arrive (and serves as
	// the exact sample set for tiny streams).
	first []float64

	q    [5]float64 // marker heights
	pos  [5]float64 // marker positions (1-based counts)
	want [5]float64 // desired marker positions
	dw   [5]float64 // desired-position increment per observation
}

// NewP2Quantile returns an estimator for quantile p (e.g. 0.99).
func NewP2Quantile(p float64) *P2Quantile {
	return &P2Quantile{p: p}
}

// Observe feeds one sample.
func (e *P2Quantile) Observe(x float64) {
	e.n++
	if e.n <= 5 {
		e.first = append(e.first, x)
		if e.n == 5 {
			sort.Float64s(e.first)
			for i := 0; i < 5; i++ {
				e.q[i] = e.first[i]
				e.pos[i] = float64(i + 1)
			}
			e.want = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
			e.dw = [5]float64{0, e.p / 2, e.p, (1 + e.p) / 2, 1}
		}
		return
	}

	// Locate x's cell, stretching the extreme markers if it falls outside.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x < e.q[1]:
		k = 0
	case x < e.q[2]:
		k = 1
	case x < e.q[3]:
		k = 2
	case x <= e.q[4]:
		k = 3
	default:
		e.q[4] = x
		k = 3
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := 0; i < 5; i++ {
		e.want[i] += e.dw[i]
	}
	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			if qn := e.parabolic(i, s); e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by s (±1).
func (e *P2Quantile) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+s)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-s)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback height prediction when the parabola overshoots a
// neighboring marker.
func (e *P2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Count returns the number of observations.
func (e *P2Quantile) Count() int { return e.n }

// Value returns the current estimate (0 with no observations; exact while
// fewer than 5 samples exist, using the report's floor-index convention).
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		s := append([]float64(nil), e.first...)
		sort.Float64s(s)
		i := int(float64(len(s)) * e.p)
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return e.q[2]
}
