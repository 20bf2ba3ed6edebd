package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Attribution of Go runtime profiles to layers, from outside: every sample
// is charged to the innermost frame that belongs to a package under
// ustore/internal/ (runtime and standard-library callees included — that
// is the layer's self time), to the harness when the innermost repo frame
// is this benchmark's own code, and to the runtime background (GC workers,
// scheduler, signal handling) when the stack has no repo frame at all. The
// shares therefore sum to 100%.

const (
	layerHarness    = "perf.harness"
	layerBackground = "runtime.background"
)

// stackSample is one profile sample: function names leaf first, and its
// weight (CPU nanoseconds or allocated bytes).
type stackSample struct {
	frames []string
	value  float64
}

// layerOf maps a function name to its layer ("" for code outside the repo).
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "ustore/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "ustore/perf.") {
		return layerHarness
	}
	return ""
}

// shares charges each sample to a layer and returns every layer's share of
// the total weight in percent (nil for an empty profile).
func shares(samples []stackSample) map[string]float64 {
	by := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		layer := layerBackground
		for _, fn := range s.frames {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		by[layer] += s.value
		total += s.value
	}
	if total == 0 {
		return nil
	}
	for l := range by {
		by[l] = 100 * by[l] / total
	}
	return by
}

// --- CPU profile: a minimal decoder for the gzipped pprof protobuf ---

// pbField is one decoded protobuf field: a varint or a length-delimited
// payload.
type pbField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

var errTruncated = errors.New("truncated protobuf")

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// pbEach calls fn for every field of one message.
func pbEach(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return err
		}
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, rest, err = pbVarint(rest)
			if err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errTruncated
			}
			rest = rest[8:]
		case 2:
			var n uint64
			n, rest, err = pbVarint(rest)
			if err != nil || n > uint64(len(rest)) {
				return errTruncated
			}
			f.data, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errTruncated
			}
			rest = rest[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(f pbField, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.value), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// decodeCPUProfile turns a pprof profile (as runtime/pprof writes it) into
// stack samples weighted by the profile's last value column (CPU
// nanoseconds for a CPU profile).
func decodeCPUProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		rawSamples []rawSample
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost inlined first
		funcName   = map[uint64]uint64{}   // function id -> string index
		strs       []string
	)
	err = pbEach(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			if err := pbEach(f.data, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbUints(g, s.locs)
				case 2:
					s.values, err = pbUints(g, s.values)
				}
				return err
			}); err != nil {
				return err
			}
			rawSamples = append(rawSamples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := pbEach(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.value
				case 4: // Line
					return pbEach(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.value)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := pbEach(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = g.value
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stackSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if len(rs.values) == 0 {
			continue
		}
		s := stackSample{value: float64(int64(rs.values[len(rs.values)-1]))}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					s.frames = append(s.frames, strs[i])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// --- allocation profile: runtime.MemProfile deltas ---

type memCount struct{ bytes, objects int64 }

// memSnapshot reads the cumulative allocation profile, keyed by stack. Two
// collections first, because the profile lags allocation by up to two GC
// cycles.
func memSnapshot() map[[32]uintptr]memCount {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(map[[32]uintptr]memCount, len(recs))
	for _, r := range recs {
		c := snap[r.Stack0]
		c.bytes += r.AllocBytes
		c.objects += r.AllocObjects
		snap[r.Stack0] = c
	}
	return snap
}

// allocSamples is what was allocated between two snapshots, as stack
// samples in bytes. Each stack's sampled bytes are scaled up by the inverse
// of its sampling probability (objects of mean size s are sampled with
// probability 1-exp(-s/rate)), as pprof does, so small and large objects
// weigh in fairly.
func allocSamples(before, after map[[32]uintptr]memCount) []stackSample {
	rate := float64(runtime.MemProfileRate)
	var out []stackSample
	for stack, a := range after {
		b := before[stack]
		dBytes, dObjs := a.bytes-b.bytes, a.objects-b.objects
		if dBytes <= 0 || dObjs <= 0 {
			continue
		}
		scale := 1.0
		if rate > 1 {
			scale = 1 / (1 - math.Exp(-float64(dBytes)/float64(dObjs)/rate))
		}
		n := 0
		for n < len(stack) && stack[n] != 0 {
			n++
		}
		s := stackSample{value: float64(dBytes) * scale}
		frames := runtime.CallersFrames(stack[:n])
		for {
			fr, more := frames.Next()
			if fr.Function != "" {
				s.frames = append(s.frames, fr.Function)
			}
			if !more {
				break
			}
		}
		out = append(out, s)
	}
	return out
}
