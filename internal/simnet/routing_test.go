package simnet

import (
	"fmt"
	"testing"
	"time"

	"ustore/internal/simtime"
)

// routeWorld is one layout the routing test drives: a, a2 and c on the a
// side, b on the b side, registered through Network(0) and Network(1) of a
// Fabric, which name one network.
type routeWorld struct {
	na, nb *Network
	cut    func(on bool) // cuts or heals machines m1 and m2
	run    func()
	// fresh returns the a side's first random draw in a new world.
	fresh func() int64
}

func plainWorld() routeWorld {
	s := simtime.NewScheduler(5)
	n := New(s)
	return routeWorld{
		na: n, nb: n,
		cut: func(on bool) {
			if on {
				n.CutMachines("m1", "m2")
			} else {
				n.HealMachines("m1", "m2")
			}
		},
		run:   func() { s.Run() },
		fresh: func() int64 { return simtime.NewScheduler(5).Rand().Int63() },
	}
}

func fabricWorld(t *testing.T) routeWorld {
	e, f := newTestFabric(t)
	return routeWorld{
		na: f.Network(0), nb: f.Network(1),
		cut: func(on bool) {
			if on {
				f.Network(0).CutMachines("m1", "m2")
			} else {
				f.Network(0).HealMachines("m1", "m2")
			}
		},
		run: func() { e.RunFor(time.Second) },
		fresh: func() int64 {
			e, _ := newTestFabric(t)
			return e.Part(0).Rand().Int63()
		},
	}
}

// route builds w's nodes, placing them before or after they register, and
// returns what each scripted send did: the delay it arrived after, or
// "drop", and the drop and release counts of the sends to names with no
// node.
func route(t *testing.T, w routeWorld, colocateFirst bool) []string {
	places := []struct {
		net        *Network
		node, mach string
	}{{w.na, "a", "m1"}, {w.na, "a2", "m1"}, {w.na, "c", "m3"}, {w.nb, "b", "m2"}}
	place := func() {
		for _, p := range places {
			p.net.Colocate(p.node, p.mach)
		}
	}
	if colocateFirst {
		place()
	}
	var trace []string
	var sentAt simtime.Time
	arrived := false
	for _, p := range places[1:] {
		rx := p.net
		rx.Node(p.node).Handle(func(m Message) {
			if m.Payload == "count" {
				trace[len(trace)-1] += "+"
				return
			}
			arrived = true
			trace = append(trace, fmt.Sprintf("%s->%s %v", rx.Name(m.From), rx.Name(m.To), rx.Scheduler().Now()-sentAt))
		})
	}
	a := w.na.Node("a")
	if !colocateFirst {
		place()
	}
	send := func(to string) {
		arrived, sentAt = false, w.na.Scheduler().Now()
		a.Send(w.na.Addr(to), "x", 0)
		w.run()
		if !arrived {
			trace = append(trace, "a->"+to+" drop")
		}
	}

	send("a2") // loopback
	send("b")  // remote
	w.nb.SetMachineBrownout("m2", 5*time.Millisecond)
	send("b")
	send("a2")
	w.nb.SetMachineBrownout("m2", 0)
	for _, iso := range []struct {
		net  *Network
		mach string
	}{{w.na, "m1"}, {w.nb, "m2"}} {
		iso.net.IsolateMachine(iso.mach)
		send("b")
		send("a2")
		iso.net.RejoinMachine(iso.mach)
	}
	w.cut(true)
	send("b")
	w.cut(false)
	send("b")
	if got, want := w.na.Scheduler().Rand().Int63(), w.fresh(); got != want {
		t.Errorf("sends at zero loss and dup rates drew the RNG: next draw %d, want %d", got, want)
	}

	// The dice, drawn on the a side's scheduler.
	w.na.SetMachineLossRate("m1", "m3", 0.5)
	w.na.SetMachineDupRate("m1", "m3", 0.5)
	trace = append(trace, "a->c dice ")
	for i := 0; i < 32; i++ {
		a.Send(w.na.Addr("c"), "count", 0)
	}
	w.run()

	// Names with no node: one interned before its node registers, one never
	// registered. Each send is one drop and gives its record back once.
	dropped := func() uint64 { return w.na.Stats().Dropped }
	late := w.nb.Addr("late")
	for _, to := range []Addr{late, w.na.Addr("ghost")} {
		counts := &pooledCounts{}
		d0 := dropped()
		a.Send(to, &pooledRec{counts}, 32)
		w.run()
		trace = append(trace, fmt.Sprintf("a->%s dropped %d released %d", w.na.Name(to), dropped()-d0, counts.released))
	}
	w.nb.Colocate("late", "m2")
	w.nb.Node("late").Handle(func(m Message) {
		trace = append(trace, fmt.Sprintf("a->late %v", w.nb.Scheduler().Now()-sentAt))
	})
	sentAt = w.na.Scheduler().Now()
	a.Send(late, "x", 0)
	w.run()
	return trace
}

// TestRoutingIndependentOfColocateOrder: a node placed before it registers
// and one placed after route alike, on a plain network and on a Fabric's
// — loopback, link and brownout delays, isolation on
// either side, a cut, and the loss and dup dice, drawn only at a positive
// rate — and a send to a name with no node is one drop that gives its
// Pooled record back.
func TestRoutingIndependentOfColocateOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		world func() routeWorld
		want  []string // the trace before the dice
	}{
		{"plain", plainWorld, []string{
			"a->a2 0s", "a->b 200µs", "a->b 5.2ms", "a->a2 0s",
			"a->b drop", "a->a2 0s", "a->b drop", "a->a2 0s",
			"a->b drop", "a->b 200µs",
		}},
		// A Fabric's hop takes one lookahead.
		{"fabric", func() routeWorld { return fabricWorld(t) }, []string{
			"a->a2 0s", "a->b 1ms", "a->b 6ms", "a->a2 0s",
			"a->b drop", "a->a2 0s", "a->b drop", "a->a2 0s",
			"a->b drop", "a->b 1ms",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := route(t, tc.world(), true)
			after := route(t, tc.world(), false)
			if fmt.Sprint(first) != fmt.Sprint(after) {
				t.Fatalf("Colocate before Node routed\n%q\nColocate after Node routed\n%q", first, after)
			}
			n := len(tc.want)
			if fmt.Sprint(first[:n]) != fmt.Sprint(tc.want) {
				t.Errorf("routed %q, want %q", first[:n], tc.want)
			}
			dice, tail := first[n], first[n+1:]
			if k := len(dice) - len("a->c dice "); k == 0 || k == 32 || k > 64 {
				t.Errorf("%d of 32 sends arrived at loss and dup rates 0.5", k)
			}
			wantTail := []string{"a->late dropped 1 released 1", "a->ghost dropped 1 released 1", "a->late 200µs"}
			if tc.name == "fabric" {
				wantTail[2] = "a->late 1ms"
			}
			if fmt.Sprint(tail) != fmt.Sprint(wantTail) {
				t.Errorf("names with no node routed %q, want %q", tail, wantTail)
			}
		})
	}
}
