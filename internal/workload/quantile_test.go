package workload

import (
	"math/rand"
	"sort"
	"testing"
)

// TestP2QuantileAccuracy feeds known distributions and requires the P²
// estimate to land within a few percent of the exact quantile.
func TestP2QuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() float64{
		"uniform":     func() float64 { return rng.Float64() * 1000 },
		"exponential": func() float64 { return rng.ExpFloat64() * 100 },
		"bimodal": func() float64 {
			if rng.Float64() < 0.9 {
				return 10 + rng.Float64()
			}
			return 500 + 50*rng.Float64()
		},
	}
	for name, draw := range dists {
		for _, p := range []float64{0.5, 0.99} {
			est := NewP2Quantile(p)
			samples := make([]float64, 0, 50000)
			for i := 0; i < 50000; i++ {
				x := draw()
				est.Observe(x)
				samples = append(samples, x)
			}
			sort.Float64s(samples)
			exact := samples[int(float64(len(samples))*p)]
			got := est.Value()
			// Tolerance relative to the distribution's scale, not the
			// quantile itself (bimodal p50 sits in a dense cluster).
			scale := samples[len(samples)-1] - samples[0]
			if diff := got - exact; diff < -0.05*scale || diff > 0.05*scale {
				t.Errorf("%s p%g: estimate %.2f vs exact %.2f (scale %.2f)",
					name, p*100, got, exact, scale)
			}
		}
	}
}

// TestP2QuantileSmallStreams: fewer than 5 samples fall back to the exact
// floor-index convention sloRow uses.
func TestP2QuantileSmallStreams(t *testing.T) {
	if got := NewP2Quantile(0.99).Value(); got != 0 {
		t.Fatalf("empty estimator Value = %v, want 0", got)
	}
	est := NewP2Quantile(0.5)
	for _, x := range []float64{30, 10, 20} {
		est.Observe(x)
	}
	if got := est.Value(); got != 20 {
		t.Fatalf("3-sample median = %v, want 20", got)
	}
}

// TestP2QuantileDeterministic: identical observation sequences produce
// bit-identical estimates.
func TestP2QuantileDeterministic(t *testing.T) {
	run := func() float64 {
		rng := rand.New(rand.NewSource(7))
		est := NewP2Quantile(0.999)
		for i := 0; i < 20000; i++ {
			est.Observe(rng.ExpFloat64())
		}
		return est.Value()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same sequence, different estimates: %v vs %v", a, b)
	}
}
