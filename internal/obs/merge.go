package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Deterministic merge of several recorders into one.
//
// No simulation folds recorders: a fleet's lanes all record into the run's
// one Recorder (DESIGN.md §8). MergeRecorders stays for callers that build
// recorders apart and want one view of them; the perf benchmark's merge
// probe is one. Everything about the fold is a pure function of the parts'
// contents and their order — series are visited in sorted-key order, trace
// events in (timestamp, part, sequence) order, float sums accumulate in that
// fixed order — so the merged output is byte-identical from run to run.

// MergeRecorders folds the part recorders into dst, in slice order. Nil
// recorders (dst or parts) are skipped; the fold is additive, so anything
// already recorded directly on dst is preserved. Gauges add up, which is
// right only when the parts measure disjoint populations: two recorders
// that each set one gauge in turn merge into their sum, not the last value.
func MergeRecorders(dst *Recorder, parts ...*Recorder) {
	if dst == nil {
		return
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		dst.reg.mergeFrom(p.reg)
	}
	trs := make([]*Tracer, 0, len(parts))
	for _, p := range parts {
		if p == nil {
			continue
		}
		trs = append(trs, p.tr)
	}
	dst.tr.mergeFrom(trs)
}

// mergeFrom adds every series of src into r, creating series as needed.
// Counters and histogram bucket/observation counts are integer adds; gauges
// and histogram sums are float adds performed in sorted-series order, so the
// result does not depend on map iteration.
func (r *Registry) mergeFrom(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	keys := make([]string, 0, len(src.series))
	for k := range src.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	srcSeries := make([]*series, len(keys))
	for i, k := range keys {
		srcSeries[i] = src.series[k]
	}
	src.mu.Unlock()

	for _, s := range srcSeries {
		d := r.lookup(s.component, s.name, s.kind, s.labels)
		if d == nil {
			continue // kind collision with an existing dst series
		}
		switch s.kind {
		case kindCounter:
			(*Counter)(&d.counter).Add((*Counter)(&s.counter).Value())
		case kindGauge:
			// Gauges of disjoint populations add up (see MergeRecorders).
			g := (*Gauge)(&d.gauge)
			g.Set(g.Value() + (*Gauge)(&s.gauge).Value())
		case kindHistogram:
			d.hist.merge(s.hist)
		}
	}
}

// merge adds src's buckets, count, and sum into h. Merging runs at engine
// quiescence with no concurrent observers, but the access idiom stays atomic
// to match Observe.
func (h *Histogram) merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	for i := range src.buckets {
		if v := atomic.LoadUint64(&src.buckets[i]); v != 0 {
			atomic.AddUint64(&h.buckets[i], v)
		}
	}
	if c := src.Count(); c != 0 {
		atomic.AddUint64(&h.count, c)
	}
	if s := src.Sum(); s != 0 {
		for {
			old := atomic.LoadUint64(&h.sumBits)
			next := math.Float64bits(math.Float64frombits(old) + s)
			if atomic.CompareAndSwapUint64(&h.sumBits, old, next) {
				break
			}
		}
	}
}

// mergeFrom interleaves the parts' buffered trace events into t in
// (timestamp, part, sequence) order, remapping event IDs — allocated
// independently per part — into t's ID space so cause links stay valid
// and IDs stay unique. Events evicted from a part's ring count toward t's
// dropped total; causes pointing at evicted events are cleared.
func (t *Tracer) mergeFrom(parts []*Tracer) {
	if t == nil {
		return
	}
	type partEvent struct {
		part int
		ev   traceEvent
	}
	var all []partEvent
	var dropped, started uint64
	for pi, p := range parts {
		if p == nil {
			continue
		}
		p.mu.Lock()
		for _, ev := range p.ring {
			all = append(all, partEvent{part: pi, ev: ev})
		}
		dropped += p.total - uint64(len(p.ring))
		started += p.started
		p.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ev.ts != all[j].ev.ts {
			return all[i].ev.ts < all[j].ev.ts
		}
		if all[i].part != all[j].part {
			return all[i].part < all[j].part
		}
		return all[i].ev.seq < all[j].ev.seq
	})

	t.mu.Lock()
	defer t.mu.Unlock()
	type pid struct {
		part int
		id   uint64
	}
	remap := make(map[pid]uint64, len(all))
	for _, pe := range all {
		key := pid{pe.part, pe.ev.id}
		if _, ok := remap[key]; !ok {
			t.nextID++
			remap[key] = t.nextID
		}
	}
	t.started += started
	t.total += dropped
	for _, pe := range all {
		ev := pe.ev
		ev.id = remap[pid{pe.part, ev.id}]
		if ev.cause != 0 {
			ev.cause = remap[pid{pe.part, ev.cause}] // 0 when the cause was evicted
		}
		t.append(ev)
	}
}
