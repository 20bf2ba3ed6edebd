package simnet

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"ustore/internal/simtime"
)

// laneScenario runs one small cross-lane scenario on four lanes and returns
// per lane what it saw: every delivery (time, sender, payload, a draw from
// the lane's random stream), its counters and its next draw, then the
// engine's totals.
//
// The scenario: lanes 3, 2 and 1 (scheduled in that order) send to lane 0
// at the same instant, so three messages share a deadline at one
// destination, and the ping-pong that follows sends sized replies; every
// delivery also sends lane-locally across a lossy machine pair, which draws
// the lane's stream. At quiescence lane 1 sends to lane 2 across a cut
// (dropped at the source) and to lane 3, whose machine is isolated while
// the message is in flight (dropped at delivery). A last post at quiescence
// restarts the ping-pong after the faults heal.
func laneScenario() []string {
	const lanes = 4
	e := simtime.NewEngine(7, lanes, 1, time.Millisecond)
	f := NewFabric(e)
	nets := make([]*Network, lanes)
	logs := make([]strings.Builder, lanes)
	name := func(l int) string { return fmt.Sprintf("n%d", l) }
	for l := range nets {
		nets[l] = f.Network(l)
		n, side := nets[l], fmt.Sprintf("x%d", l)
		n.Colocate(name(l), fmt.Sprintf("m%d", l))
		n.Colocate(side, fmt.Sprintf("mx%d", l))
		n.SetMachineLossRate(fmt.Sprintf("m%d", l), fmt.Sprintf("mx%d", l), 0.3)
		n.Node(side).Handle(func(msg Message) {
			fmt.Fprintf(&logs[l], "%v local %v\n", n.Scheduler().Now(), msg.Payload)
		})
		self := n.Node(name(l))
		self.Handle(func(msg Message) {
			ttl := msg.Payload.(int)
			fmt.Fprintf(&logs[l], "%v from %s ttl=%d r=%d\n", n.Scheduler().Now(), n.Name(msg.From), ttl, n.Rand().Intn(1000))
			self.Send(n.Addr(side), ttl, 0)
			if ttl > 0 {
				self.Send(msg.From, ttl-1, 100*ttl)
			}
		})
	}
	send := func(from, to, ttl int) {
		nets[from].Node(name(from)).Send(nets[from].Addr(name(to)), ttl, 0)
	}
	for l := lanes - 1; l >= 1; l-- {
		nets[l].Scheduler().At(time.Millisecond, func() { send(l, 0, 3) })
	}
	e.RunUntil(10 * time.Millisecond)

	nets[1].CutMachines("m1", "m2")
	send(1, 2, 1)
	send(1, 3, 1)
	e.RunUntil(10*time.Millisecond + 500*time.Microsecond)
	nets[3].IsolateMachine("m3")
	e.RunUntil(20 * time.Millisecond)
	nets[3].RejoinMachine("m3")
	nets[2].HealMachines("m1", "m2")
	send(0, 2, 2)
	end := e.RunUntil(50 * time.Millisecond)

	out := make([]string, 0, lanes+1)
	for l, n := range nets {
		out = append(out, fmt.Sprintf("lane %d: %+v next=%d\n%s", l, n.Stats(), n.Rand().Int63(), logs[l].String()))
	}
	st := e.Stats()
	return append(out, fmt.Sprintf("fired=%d end=%v windows=%d messages=%d", e.Fired(), end, st.Windows, st.Messages))
}

// TestLanesMatchPartitions: lanes on one scheduler see what they saw on
// partitions of their own — the same deliveries at the same times in the
// same order, the same drops and the same random draws.
// testdata/lanes_partitioned.txt is laneScenario's output on the engine
// that gave each lane a partition, a frozen reference this engine is held
// to; the lanes share one fault table, so the cut set through lane 1 and
// healed through lane 2 is the cut the partitioned run set on the fabric.
func TestLanesMatchPartitions(t *testing.T) {
	golden, err := os.ReadFile("testdata/lanes_partitioned.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n\n")
	got := strings.Split(strings.Join(laneScenario(), "\n"), "\n\n")
	if len(got) != len(want) {
		t.Fatalf("%d sections, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lanes:\n%s\nwant (a partition per lane):\n%s", got[i], want[i])
		}
	}
	// The scenario reaches what it is meant to: the three equal-deadline
	// sends arrive in lane order, the cut and the isolation each drop one
	// message, and the ping-pong restarts after the heal.
	for _, s := range []string{"2ms from n1 ttl=3", "2ms from n2 ttl=3", "2ms from n3 ttl=3"} {
		if !strings.Contains(got[0], s) {
			t.Errorf("lane 0 log lacks %q:\n%s", s, got[0])
		}
	}
	if i, j := strings.Index(got[0], "from n1 ttl=3"), strings.Index(got[0], "from n3 ttl=3"); i > j {
		t.Errorf("lane 0 heard lane 3 before lane 1:\n%s", got[0])
	}
	if strings.Contains(got[2], "10ms") || strings.Contains(got[3], "11ms from n1") {
		t.Errorf("a cut or isolated message arrived:\n%s\n%s", got[2], got[3])
	}
	if !strings.Contains(got[2], "from n0 ttl=2") {
		t.Errorf("lane 2 never heard the post made at quiescence:\n%s", got[2])
	}
}
