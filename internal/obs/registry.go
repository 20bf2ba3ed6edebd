package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds all metric series for one run, keyed by
// (component, name, labels). Handle creation takes the registry mutex;
// updates through the returned handles are single atomic operations.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// series is one (component, name, labels) time series.
type series struct {
	component string
	name      string
	labels    []Label // sorted by key
	kind      metricKind

	counter uint64 // Counter: atomic count
	gauge   uint64 // Gauge: atomic math.Float64bits

	hist *Histogram
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// seriesKey canonicalizes the identity of a series. labels must already be
// sorted by key.
func seriesKey(component, name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(component)
	b.WriteByte(0x1f)
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0x1f)
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return labels
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup returns the series, creating it with the given kind if absent.
// A kind mismatch on an existing series returns nil (programming error;
// the nil handle then no-ops rather than corrupting another series).
func (r *Registry) lookup(component, name string, kind metricKind, labels []Label) *series {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	key := seriesKey(component, name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[key]
	if !ok {
		s = &series{component: component, name: name, labels: labels, kind: kind}
		if kind == kindHistogram {
			s.hist = &Histogram{}
		}
		r.series[key] = s
	}
	if s.kind != kind {
		return nil
	}
	return s
}

// Counter returns the named counter handle, creating the series if needed.
func (r *Registry) Counter(component, name string, labels ...Label) *Counter {
	s := r.lookup(component, name, kindCounter, labels)
	if s == nil {
		return nil
	}
	return (*Counter)(&s.counter)
}

// Gauge returns the named gauge handle, creating the series if needed.
func (r *Registry) Gauge(component, name string, labels ...Label) *Gauge {
	s := r.lookup(component, name, kindGauge, labels)
	if s == nil {
		return nil
	}
	return (*Gauge)(&s.gauge)
}

// Histogram returns the named histogram handle, creating the series if
// needed.
func (r *Registry) Histogram(component, name string, labels ...Label) *Histogram {
	s := r.lookup(component, name, kindHistogram, labels)
	if s == nil {
		return nil
	}
	return s.hist
}

// Counter is a monotonically increasing count. All methods are nil-safe.
type Counter uint64

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	atomic.AddUint64((*uint64)(c), n)
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return atomic.LoadUint64((*uint64)(c))
}

// Gauge is a float64 that can go up and down. All methods are nil-safe.
type Gauge uint64

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64((*uint64)(g), math.Float64bits(v))
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64((*uint64)(g)))
}

// Histogram buckets: fixed log-scale (powers of two) upper bounds
// HistMinBound * 2^i for i in [0, HistBuckets), in the metric's natural
// unit (by convention seconds). With HistMinBound = 1e-6 the range spans
// 1µs .. ~6.4 simulated days; observations above the last bound land in
// the implicit +Inf bucket, observations at or below the first bound in
// bucket 0.
const (
	HistBuckets  = 40
	HistMinBound = 1e-6
)

// HistogramBounds returns the finite upper bounds (le) of the default
// buckets, ascending.
func HistogramBounds() []float64 {
	out := make([]float64, HistBuckets)
	b := HistMinBound
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}

// Histogram is a fixed-bucket log-scale histogram. All methods are
// nil-safe. Bucket counts are non-cumulative internally; snapshots emit
// Prometheus-style cumulative buckets.
type Histogram struct {
	buckets [HistBuckets + 1]uint64 // last slot is +Inf overflow
	count   uint64
	sumBits uint64 // math.Float64bits, CAS-updated
}

// bucketIndex maps v to its bucket, deterministically: the smallest i with
// v <= HistMinBound*2^i, clamped to the +Inf slot. Uses Frexp rather than
// a floating log so boundary values land exactly.
func bucketIndex(v float64) int {
	if v <= HistMinBound {
		return 0
	}
	frac, exp := math.Frexp(v / HistMinBound) // v/min = frac * 2^exp, frac in [0.5, 1)
	idx := exp
	if frac == 0.5 {
		idx = exp - 1
	}
	if idx >= HistBuckets {
		return HistBuckets // +Inf
	}
	return idx
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	atomic.AddUint64(&h.buckets[bucketIndex(v)], 1)
	atomic.AddUint64(&h.count, 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sumBits, old, next) {
			return
		}
	}
}

// ObserveDuration records a duration as seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return atomic.LoadUint64(&h.count)
}

// Sum reads the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&h.sumBits))
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observed values: the upper bound of the first bucket whose cumulative
// count reaches rank ceil(q*n).
//
// Error bound: bucket i covers (HistMinBound*2^(i-1), HistMinBound*2^i]
// (bucket 0 covers everything at or below HistMinBound), so the true
// quantile lies in (bound/2, bound] — the returned value overestimates by
// at most 2x and never underestimates. That is the price of fixed
// power-of-two buckets; for exact percentiles keep raw samples.
//
// Returns 0 when the histogram is empty and +Inf when the rank falls in
// the overflow bucket. A concurrent Observe may skew the result by one
// observation; snapshots taken between runs are exact.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.Count()
	if n == 0 || q <= 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	cum := uint64(0)
	bound := HistMinBound
	for i := 0; i < HistBuckets; i++ {
		cum += atomic.LoadUint64(&h.buckets[i])
		if cum >= rank {
			return bound
		}
		bound *= 2
	}
	return math.Inf(1)
}

// QuantileDuration is Quantile for histograms observed in seconds,
// returned as a duration. An overflow-bucket (+Inf) result clamps to the
// maximum representable duration.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	v := h.Quantile(q)
	if math.IsInf(v, 1) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(v * float64(time.Second))
}
