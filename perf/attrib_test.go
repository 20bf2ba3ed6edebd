package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ustore/internal/simtime.(*Scheduler).Step":     "simtime",
		"ustore/internal/core.(*Master).allocate.func1": "core",
		"ustore/internal/fleet.newRouter":               "fleet",
		"main.runFleetChurn.func3":                      layerHarness,
		"ustore/perf.TestShares":                        layerHarness,
		"runtime.mallocgc":                              "",
		"fmt.Sprintf":                                   "",
		"ustore.New":                                    "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A synthetic profile: innermost repo frame wins, callees from runtime and
// the standard library are the layer's self time, stacks with no repo
// frame are background, and the shares sum to 100%.
var syntheticProfile = []stackSample{
	{[]string{"runtime.mallocgc", "ustore/internal/block.(*Msg).Encode", "ustore/internal/core.(*ClientLib).Read", "ustore/internal/simtime.(*Scheduler).Step", "main.main"}, 30},
	{[]string{"ustore/internal/simtime.(*Scheduler).popNext", "ustore/internal/simtime.(*Scheduler).Step", "main.main"}, 20},
	{[]string{"fmt.Sprintf", "main.runFleetAlloc.func1", "ustore/internal/simnet.(*RPCNode).dispatch", "ustore/internal/simtime.(*Scheduler).Step"}, 10},
	{[]string{"runtime.gcBgMarkWorker"}, 25},
	{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 15},
}

func checkSyntheticShares(t *testing.T, got map[string]float64) {
	t.Helper()
	want := map[string]float64{"block": 30, "simtime": 20, layerHarness: 10, layerBackground: 40}
	sum := 0.0
	for layer, share := range got {
		sum += share
		if math.Abs(share-want[layer]) > 1e-9 {
			t.Errorf("layer %s: share %v, want %v", layer, share, want[layer])
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
}

func TestSharesSumTo100(t *testing.T) {
	checkSyntheticShares(t, shares(syntheticProfile))
	if shares(nil) != nil {
		t.Errorf("an empty profile has no shares")
	}
}

// --- a tiny pprof encoder, so the decoder is tested on the wire format ---

func pbAppendVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbAppendField(b []byte, num int, v uint64) []byte {
	return pbAppendVarint(pbAppendVarint(b, uint64(num)<<3), v)
}

func pbAppendBytes(b []byte, num int, data []byte) []byte {
	b = pbAppendVarint(b, uint64(num)<<3|2)
	return append(pbAppendVarint(b, uint64(len(data))), data...)
}

// encodeProfile writes samples as runtime/pprof would: one function and
// one location per distinct frame, packed location ids, and two value
// columns (sample count, nanoseconds) of which the last one weighs. Every
// other location is written as an inlined pair to cover multi-line
// locations.
func encodeProfile(samples []stackSample, packed bool) []byte {
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strs = append(strs, s)
		strIdx[s] = uint64(len(strs) - 1)
		return strIdx[s]
	}
	funcID := map[string]uint64{}
	var prof []byte
	var funcs, locs [][]byte
	fnOf := func(name string) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		id := uint64(len(funcID) + 1)
		funcID[name] = id
		f := pbAppendField(nil, 1, id)
		f = pbAppendField(f, 2, intern(name))
		funcs = append(funcs, f)
		return id
	}
	nextLoc := uint64(1)
	for _, s := range samples {
		var ids []uint64
		for i := 0; i < len(s.frames); i++ {
			loc := pbAppendField(nil, 1, nextLoc)
			loc = pbAppendBytes(loc, 4, pbAppendField(nil, 1, fnOf(s.frames[i])))
			if i%2 == 0 && i+1 < len(s.frames) { // fold the caller in as an inlined line
				i++
				loc = pbAppendBytes(loc, 4, pbAppendField(nil, 1, fnOf(s.frames[i])))
			}
			locs = append(locs, loc)
			ids = append(ids, nextLoc)
			nextLoc++
		}
		var sample []byte
		if packed {
			var p []byte
			for _, id := range ids {
				p = pbAppendVarint(p, id)
			}
			sample = pbAppendBytes(sample, 1, p)
			sample = pbAppendBytes(sample, 2, pbAppendVarint(pbAppendVarint(nil, 1), uint64(s.value)))
		} else {
			for _, id := range ids {
				sample = pbAppendField(sample, 1, id)
			}
			sample = pbAppendField(pbAppendField(sample, 2, 1), 2, uint64(s.value))
		}
		prof = pbAppendBytes(prof, 2, sample)
	}
	for _, l := range locs {
		prof = pbAppendBytes(prof, 4, l)
	}
	for _, f := range funcs {
		prof = pbAppendBytes(prof, 5, f)
	}
	for _, s := range strs {
		prof = pbAppendBytes(prof, 6, []byte(s))
	}
	prof = pbAppendField(prof, 9, 1234) // time_nanos: a field the decoder skips
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()
	return gz.Bytes()
}

func TestDecodeCPUProfile(t *testing.T) {
	for _, packed := range []bool{true, false} {
		got, err := decodeCPUProfile(encodeProfile(syntheticProfile, packed))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(syntheticProfile) {
			t.Fatalf("decoded %d samples, want %d", len(got), len(syntheticProfile))
		}
		for i, s := range got {
			want := syntheticProfile[i]
			if s.value != want.value || len(s.frames) != len(want.frames) {
				t.Fatalf("sample %d: %+v, want %+v", i, s, want)
			}
			for j := range s.frames {
				if s.frames[j] != want.frames[j] {
					t.Errorf("sample %d frame %d: %q, want %q", i, j, s.frames[j], want.frames[j])
				}
			}
		}
		checkSyntheticShares(t, shares(got))
	}
	if _, err := decodeCPUProfile([]byte("not gzip")); err == nil {
		t.Errorf("garbage decoded")
	}
	whole := encodeProfile(syntheticProfile, true)
	zr, _ := gzip.NewReader(bytes.NewReader(whole))
	var raw bytes.Buffer
	raw.ReadFrom(zr)
	var cut bytes.Buffer
	zw := gzip.NewWriter(&cut)
	zw.Write(raw.Bytes()[:raw.Len()/2])
	zw.Close()
	if _, err := decodeCPUProfile(cut.Bytes()); err == nil {
		t.Errorf("a truncated profile decoded")
	}
}

func TestAllocSamplesAttributeThisTest(t *testing.T) {
	before := memSnapshot()
	sink = make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<20)) // above the sampling rate: always sampled
	}
	got := shares(allocSamples(before, memSnapshot()))
	if got[layerHarness] < 90 {
		t.Errorf("64 MB allocated by the harness, harness share %v of %v", got[layerHarness], got)
	}
}

var sink [][]byte
