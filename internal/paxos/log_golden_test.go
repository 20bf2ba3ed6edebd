package paxos

import (
	"bytes"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
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

// TestLongLogGolden pins the protocol over logs long enough to truncate: 16
// seeded 3-replica runs of 3 840 proposals in pipelined bursts on lossy links
// that duplicate 20-80 % of messages, one replica stopped and resumed six
// times. Each record is every replica's applied count, last slot and a hash
// of its applied (slot, ID) sequence, plus the network's send count. How far
// back a replica keeps its log must leave every byte of
// testdata/log_long_seeds.txt as it is; go test -update rewrites it.
//
// The duplicates are the point: they deliver catch-up requests from below
// the floor (five across the 16 seeds) and proposals the leader already
// placed, after the requester or the log has moved on. Three variants of
// truncation each move this file: replies sized by the entries they still
// carry, and dropping the leader's inFlight entries below the floor, alone or
// together.
func TestLongLogGolden(t *testing.T) {
	var out bytes.Buffer
	for seed := int64(0); seed < 16; seed++ {
		runLongLogSeed(&out, seed)
	}
	const path = "testdata/log_long_seeds.txt"
	if *update {
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

// runLongLogSeed drives one long seeded run and appends its record to out.
func runLongLogSeed(out *bytes.Buffer, seed int64) {
	s := simtime.NewScheduler(seed)
	net := simnet.New(s)
	names := []string{"m0", "m1", "m2"}
	nodes := make([]*Node, len(names))
	hashes := make([]hash.Hash64, len(names))
	counts := make([]int, len(names))
	last := make([]int, len(names))
	for i, name := range names {
		i := i
		hashes[i] = fnv.New64a()
		net.Colocate(name, name)
		nodes[i] = New(net, name, names, DefaultConfig(), func(slot int, cmd Command) {
			fmt.Fprintf(hashes[i], " %d:%s", slot, cmd.ID)
			counts[i]++
			last[i] = slot
		})
	}
	rng := rand.New(rand.NewSource(seed))
	for i, a := range names {
		for _, b := range names[i+1:] {
			net.SetMachineLossRate(a, b, 0.05*float64(rng.Intn(3)))
			net.SetMachineDupRate(a, b, 0.2*float64(1+rng.Intn(4)))
		}
	}
	s.RunFor(2 * time.Second)
	victim := nodes[rng.Intn(3)]
	for round := 0; round < 96; round++ {
		switch round % 16 {
		case 4:
			victim.Stop()
		case 10:
			victim.Resume()
		}
		for k := 0; k < 40; k++ {
			nodes[rng.Intn(3)].Propose(Command{ID: fmt.Sprintf("r%dc%d", round, k)}, nil)
			if k%8 == 7 {
				s.RunFor(time.Duration(rng.Intn(3000)) * time.Microsecond)
			}
		}
		s.RunFor(time.Duration(100+rng.Intn(300)) * time.Millisecond)
	}
	s.RunFor(30 * time.Second)
	fmt.Fprintf(out, "seed %d sent=%d stopped=%s\n", seed, net.Stats().Sent, victim.name)
	for i, name := range names {
		fmt.Fprintf(out, "  %s applied=%d last=%d hash=%016x\n", name, counts[i], last[i], hashes[i].Sum64())
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
