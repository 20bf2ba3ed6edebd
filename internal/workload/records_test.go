package workload

import (
	"testing"
	"time"

	"ustore/internal/core"
	"ustore/internal/fabric"
)

// TestTrafficRecordsComeHome runs a shortened protected traffic timeline
// with a restore-storm wave and an ingest campaign, and then requires every
// request and arrival record the engine made to be back on its list: Run
// drains every request before it returns, and every arrival has fired.
func TestTrafficRecordsComeHome(t *testing.T) {
	o := DefaultTrafficOptions(1)
	o.StormEnabled, o.Protect = true, true
	o.Warmup, o.Quiescent, o.Storm, o.Drain = time.Minute, 2*time.Minute, time.Minute, time.Minute
	cfg := core.DefaultConfig()
	cfg.Fabric = fabric.Config{Hosts: []string{"h1", "h2", "h3"}, Disks: 6, FanIn: 4}
	cfg.DisableChecksums = true
	cfg.Protection = o.ProtectionConfig()
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(8 * time.Second)
	e := NewTrafficEngine(c, o, func(string, ...any) {})
	if err := e.Setup(); err != nil {
		t.Fatal(err)
	}
	rep := e.Run()
	if e.inflight != 0 {
		t.Fatalf("%d requests in flight after Run", e.inflight)
	}
	storm := 0
	for _, row := range rep.Rows {
		if row.Class == ClassBatch && row.Phase == PhaseStorm {
			storm += row.Total
		}
	}
	if storm == 0 {
		t.Fatal("no storm request completed")
	}
	for name, l := range map[string]interface{ Counts() (int, int) }{"requests": &e.reqs, "arrivals": &e.arrivals} {
		if made, idle := l.Counts(); made == 0 || idle != made {
			t.Errorf("%s: %d of the %d records made are back", name, idle, made)
		}
	}
}
