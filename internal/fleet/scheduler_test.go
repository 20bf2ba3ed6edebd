package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ustore/internal/obs"
)

// hold plants n volume records in a leader's soft state, each spread over
// three of the shard's own units, as an idle fleet holds them. The records
// are not committed: only the scheduler and the checks read them here.
func hold(m *ShardMaster, n int) {
	units := m.f.Topo.ShardUnits(m.shard)
	for i := 0; i < n; i++ {
		var disks []string
		for j := 0; j < replicas; j++ {
			u := m.f.Topo.UnitByID[units[(i+j)%len(units)]]
			disks = append(disks, u.Disks[i%len(u.Disks)])
		}
		m.putVol(fmt.Sprintf("held-%06d", i), VolRecord{Size: volSize, Service: "svc", Disks: disks})
	}
}

// TestIdleTickAllocs: a leader tick that finds nothing to do allocates
// nothing, however many volumes the shard holds — inspection walks a
// snapshot it retakes into the same array once a pass, and no pass sorts
// what it will not walk.
func TestIdleTickAllocs(t *testing.T) {
	f := boot(t, testConfig())
	m := f.Leader(0)
	hold(m, 20000)
	m.sch.tick() // the first pass's snapshot
	if got := testing.AllocsPerRun(1000, m.sch.tick); got >= 0.1 {
		t.Fatalf("an idle tick over 20000 volumes allocates %.2f times, want < 0.1", got)
	}
}

// BenchmarkShardTick times one idle leader tick at two shard sizes.
func BenchmarkShardTick(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("vols=%d", n), func(b *testing.B) {
			f := boot(b, testConfig())
			m := f.Leader(0)
			hold(m, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.sch.tick()
			}
		})
	}
}

// anomalies returns the volumes a recorder's trace reports inspect-anomaly
// for, in order.
func anomalies(t *testing.T, rec *obs.Recorder) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Tracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Args map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	var vols []string
	for _, ev := range trace.TraceEvents {
		if ev.Name == "inspect-anomaly" {
			vols = append(vols, fmt.Sprint(ev.Args["volume"]))
		}
	}
	return vols
}

// TestInspectPassReportsAnomaly: a malformed record present when a pass
// begins is reported within ⌈V/16⌉ ticks, and not before its turn; one
// created mid-pass waits for the next pass; one released mid-pass is
// skipped, and every tick still inspects inspectPerTick live records.
func TestInspectPassReportsAnomaly(t *testing.T) {
	f := boot(t, testConfig())
	m := f.Leader(0)
	m.rec = obs.NewRecorder()
	m.sch.cInspected = m.rec.Counter("fleet", "inspected_total")
	const v = 100
	hold(m, v-1)
	disks := m.vols["held-000000"].Disks
	m.putVol("held-zzz", VolRecord{Size: -1, Disks: disks})
	m.putVol("held-000050", VolRecord{Size: -1, Disks: disks})
	m.sch.start() // a pass begins at the next tick
	ticks := (v + inspectPerTick - 1) / inspectPerTick
	for i := 0; i < ticks-1; i++ {
		m.sch.tick()
		if i == 0 {
			m.putVol("held-late", VolRecord{Size: volSize})
			m.delVol("held-000050")
		}
	}
	if got := anomalies(t, m.rec); len(got) != 0 {
		t.Fatalf("after %d ticks the pass already reported %v; it sorts held-zzz last", ticks-1, got)
	}
	m.sch.tick()
	if got := anomalies(t, m.rec); strings.Join(got, ",") != "held-zzz" {
		t.Fatalf("after %d ticks over %d volumes the pass reported %v, want [held-zzz]", ticks, v, got)
	}
	// The pass ran out within that tick; the next one holds held-late,
	// which sorts before held-zzz.
	for i := 0; i < ticks; i++ {
		m.sch.tick()
	}
	if got := anomalies(t, m.rec); strings.Join(got, ",") != "held-zzz,held-late,held-zzz" {
		t.Fatalf("the second pass reported %v, want held-late then held-zzz", got)
	}
	if got, want := m.sch.cInspected.Value(), uint64(2*ticks*inspectPerTick); got != want {
		t.Fatalf("%d ticks inspected %d records, want %d", 2*ticks, got, want)
	}
}

// TestChecksNameSmallestViolation: with several violating records, the
// spread and drain checks name the smallest volume ID, whatever order the
// map walk visits them in.
func TestChecksNameSmallestViolation(t *testing.T) {
	f := boot(t, testConfig())
	m := f.Leader(0)
	hold(m, 40)
	u := f.Topo.UnitOfDisk(m.ix.ID(0)).ID
	// Every tenth record puts two fragments on one disk, so on one unit.
	for i := 7; i < 40; i += 10 {
		id := fmt.Sprintf("held-%06d", i)
		d := m.vols[id].Disks
		m.putVol(id, VolRecord{Size: volSize, Disks: []string{d[0], d[0], d[1]}})
	}
	bad := m.vols["held-000007"].Disks
	wantSpread := fmt.Sprintf("fleet: volume held-000007 has two fragments in failure domain %s (%s and %s)",
		f.Topo.Disks[bad[0]].Domain, bad[0], bad[1])
	wantDrain := fmt.Sprintf("shard 0 volume held-000000 still on %s (disk %s)", u, m.vols["held-000000"].Disks[0])
	for i := 0; i < 20; i++ {
		if err := f.ValidateSpread(); err == nil || err.Error() != wantSpread {
			t.Fatalf("ValidateSpread = %v, want %s", err, wantSpread)
		}
		if got := f.DrainBlocker(u); got != wantDrain {
			t.Fatalf("DrainBlocker(%s) = %q, want %q", u, got, wantDrain)
		}
	}
}

// TestValidateCapacityChecksForeignSet: the capacity check holds the
// foreign set to a recomputation from the records.
func TestValidateCapacityChecksForeignSet(t *testing.T) {
	f := boot(t, testConfig())
	r := f.NewRouter("c1")
	mustAlloc(t, f, r, "vol-a")
	mustAlloc(t, f, r, "vol-b")
	checkInvariants(t, f)
	m := f.Leader(f.AuthMap().ShardOf("vol-b"))
	m.foreign["vol-b"] = struct{}{}
	m.foreign["vol-gone"] = struct{}{}
	want := fmt.Sprintf("fleet: shard %d volume vol-b is in the foreign set but has no foreign fragment", m.shard)
	if err := f.ValidateCapacity(); err == nil || err.Error() != want {
		t.Fatalf("ValidateCapacity = %v, want %s", err, want)
	}
	delete(m.foreign, "vol-b")
	want = fmt.Sprintf("fleet: shard %d volume vol-gone is in the foreign set but has no record", m.shard)
	if err := f.ValidateCapacity(); err == nil || err.Error() != want {
		t.Fatalf("ValidateCapacity = %v, want %s", err, want)
	}
	delete(m.foreign, "vol-gone")
	// A record written around putVol with a fragment on another shard's
	// disk is missing from the set.
	other := f.Topo.Units[0]
	for other.Shard == m.shard {
		other = f.Topo.Units[other.Index+1]
	}
	m.vols["vol-c"] = VolRecord{Size: volSize, Disks: []string{other.Disks[0]}}
	want = fmt.Sprintf("fleet: shard %d volume vol-c has a fragment on a foreign disk but is not in the foreign set", m.shard)
	if err := f.ValidateCapacity(); err == nil || err.Error() != want {
		t.Fatalf("ValidateCapacity = %v, want %s", err, want)
	}
}
