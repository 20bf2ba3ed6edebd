package disk

import (
	"testing"

	"ustore/internal/simtime"
)

// TestRecordsComeHome: every service record the disk made is back on its
// list once the run is over, the one whose IO a power cut failed mid-service
// included (its event still fires, finds the record stale, and recycles it).
func TestRecordsComeHome(t *testing.T) {
	s := simtime.NewScheduler(1)
	d := New(s, "d0", DT01ACA300(), AttachFabric)
	submit := func(n int) {
		for i := 0; i < n; i++ {
			d.Submit(&Request{Op: Op{Read: i%2 == 0, Size: 64 << 10, Pattern: Random}, Offset: int64(i) << 20,
				Data: make([]byte, 64<<10), Done: func([]byte, error) {}})
		}
	}
	submit(4)
	s.Run()
	submit(3)
	if d.serving == nil {
		t.Fatal("no IO in service before the power cut")
	}
	d.PowerOff()
	s.Run()
	d.PowerOn()
	submit(2)
	s.Run()
	if made, idle := d.services.Counts(); made == 0 || idle != made {
		t.Errorf("service records: %d of the %d made are back", idle, made)
	}
}
