package paxos

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestLogGolden pins the protocol's observable behaviour under faults: 32
// seeded 3-replica runs on lossy, duplicating and partitioned links, each
// recording every replica's applied (slot, ID) sequence and the network's
// send count. A change to how the log is stored or how timers are armed must
// leave every byte of testdata/log_seeds.txt as it is; go test -update
// rewrites it.
func TestLogGolden(t *testing.T) {
	var out bytes.Buffer
	for seed := int64(0); seed < 32; seed++ {
		runLogSeed(&out, seed)
	}
	const path = "testdata/log_seeds.txt"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("applied logs or send counts differ from %s:\n%s", path, out.String())
	}
}

// runLogSeed drives one seeded run and appends its record to out.
func runLogSeed(out *bytes.Buffer, seed int64) {
	s := simtime.NewScheduler(seed)
	net := simnet.New(s)
	names := []string{"m0", "m1", "m2"}
	nodes := make([]*Node, len(names))
	applied := make([]bytes.Buffer, len(names))
	for i, name := range names {
		i := i
		net.Colocate(name, name)
		nodes[i] = New(net, name, names, DefaultConfig(), func(slot int, cmd Command) {
			fmt.Fprintf(&applied[i], " %d:%s", slot, cmd.ID)
		})
	}
	rng := rand.New(rand.NewSource(seed))
	for i, a := range names {
		for _, b := range names[i+1:] {
			net.SetMachineLossRate(a, b, 0.05*float64(rng.Intn(4)))
			net.SetMachineDupRate(a, b, 0.1*float64(rng.Intn(4)))
		}
	}
	s.RunFor(2 * time.Second)
	cmd := 0
	for round := 0; round < 8; round++ {
		switch rng.Intn(3) {
		case 0: // isolate one replica
			x := names[rng.Intn(3)]
			for _, y := range names {
				if y != x {
					net.CutMachines(x, y)
				}
			}
		case 1: // heal everything
			for _, a := range names {
				for _, b := range names {
					net.HealMachines(a, b)
				}
			}
		}
		for k := 0; k < 1+rng.Intn(4); k++ {
			nodes[rng.Intn(3)].Propose(Command{ID: fmt.Sprintf("r%dc%d", round, cmd)}, nil)
			cmd++
		}
		s.RunFor(time.Duration(200+rng.Intn(1200)) * time.Millisecond)
	}
	for _, a := range names {
		for _, b := range names {
			net.HealMachines(a, b)
		}
	}
	s.RunFor(10 * time.Second)
	fmt.Fprintf(out, "seed %d sent=%d\n", seed, net.Stats().Sent)
	for i, name := range names {
		fmt.Fprintf(out, "  %s%s\n", name, applied[i].String())
	}
}
