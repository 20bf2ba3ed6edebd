package policy

import (
	"testing"
	"time"
)

// TestRecordsComeHome runs two classes over two disks, one of them cold for
// a while, through grants, releases, queue-full and deadline sheds, and then
// requires every request record the admission made to be back on its list:
// each is recycled once its outcome's callback has been read out.
func TestRecordsComeHome(t *testing.T) {
	a := NewAdmission(admissionClasses(), 1)
	a.SetReady(at(0), "d1", true)
	held := map[string]int{} // granted slots not yet released, per disk
	for i := 0; i < 40; i++ {
		now := at(time.Duration(i) * 500 * time.Millisecond)
		class, disk := "premium", "d1"
		if i%3 == 0 {
			class = "batch"
		}
		if i%4 == 0 {
			disk = "d2"
		}
		a.Submit(now, class, disk, func() { held[disk]++ }, func(ShedReason) {})
		if i%5 == 4 && held["d1"] > 0 {
			held["d1"]--
			a.Release(now, "d1")
		}
		a.Poll(now)
	}
	a.SetReady(at(30*time.Second), "d2", true)
	for end := at(time.Minute); held["d1"]+held["d2"] > 0; {
		for _, disk := range []string{"d1", "d2"} {
			if held[disk] > 0 {
				held[disk]--
				a.Release(end, disk)
			}
		}
	}
	a.Poll(at(time.Hour))
	if made, idle := a.requests.Counts(); made == 0 || idle != made || a.QueueDepth() != 0 {
		t.Errorf("request records: %d of the %d made are back, %d still queued", idle, made, a.QueueDepth())
	}
}
