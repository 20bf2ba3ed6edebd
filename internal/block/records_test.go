package block

import (
	"bytes"
	"testing"
)

// TestRecordsComeHome runs writes, copied and discarded reads, a read out
// of bounds and a read the down target never answers, and then requires
// every record the initiator's calls, the target's replies and the volume's
// IOs made to be back on its list: nothing is in flight at the end.
func TestRecordsComeHome(t *testing.T) {
	r := newSimRig(t)
	vol, err := NewDiskVolume(r.d, 1<<30, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	r.tgt.Export("sp1", vol)
	r.ini.Login("h1", "sp1", func(int64, error) {})
	r.sched.Run()
	payload := bytes.Repeat([]byte("cold"), 1024)
	for i := 0; i < 4; i++ {
		off := int64(i) * 8192
		r.ini.Write("h1", "sp1", off, payload, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		})
		r.ini.Read("h1", "sp1", off, len(payload), func(_ []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
		})
		r.ini.ReadDiscard("h1", "sp1", off, len(payload), func(_ []byte, err error) {
			if err != nil {
				t.Errorf("discard read: %v", err)
			}
		})
	}
	r.ini.Read("h1", "sp1", 1<<20-100, 512, func(_ []byte, err error) {
		if err == nil {
			t.Error("out-of-bounds read succeeded")
		}
	})
	r.sched.Run()
	r.tgt.Down(true)
	r.ini.Read("h1", "sp1", 0, 512, func(_ []byte, err error) {
		if err == nil {
			t.Error("read from a down target succeeded")
		}
	})
	r.sched.Run()
	for name, l := range map[string]interface{ Counts() (int, int) }{
		"initiator calls": &r.ini.calls, "read replies": &r.tgt.readReplies,
		"write replies": &r.tgt.writeReplies, "volume IOs": &vol.ios,
	} {
		if made, idle := l.Counts(); made == 0 || idle != made {
			t.Errorf("%s: %d of the %d records made are back", name, idle, made)
		}
	}
}
