// Failover: the paper's headline availability demo. A backup service
// streams data into UStore while one of the four hosts crashes. The Master
// detects the silence, commands the Controller to re-home the dead host's
// disks through the fat-tree switches, the disks re-enumerate on surviving
// hosts, and the client's ClientLib remounts transparently — recovery in
// seconds (paper: 5.8s), with zero data rebuilt over the network.
package main

import (
	"fmt"
	"log"
	"time"

	"ustore"
)

func main() {
	cfg := ustore.DefaultConfig()
	cluster, err := ustore.NewCluster(cfg)
	if err != nil {
		log.Fatalf("building cluster: %v", err)
	}
	cluster.Settle(ustore.BootTime)
	master := cluster.ActiveMaster()
	if master == nil {
		log.Fatal("no active master")
	}
	say := func(format string, args ...any) {
		fmt.Printf("[t=%8s] %s\n",
			cluster.Sched.Now().Truncate(time.Millisecond), fmt.Sprintf(format, args...))
	}

	// The backup service allocates a volume and streams 4MB chunks. Simulated
	// disks keep what is written, so the volume is sized to fit in memory.
	client := cluster.Client("backup-agent", "nightly-backup")
	var alloc ustore.AllocateReply
	client.Allocate(512<<20, func(rep ustore.AllocateReply, err error) {
		if err != nil {
			log.Fatalf("allocate: %v", err)
		}
		alloc = rep
	})
	cluster.Settle(2 * time.Second)
	client.Mount(alloc.Space, func(err error) {
		if err != nil {
			log.Fatalf("mount: %v", err)
		}
	})
	cluster.Settle(time.Second)
	say("backup volume %s on host %s", alloc.Space, alloc.Host)

	client.OnMount = func(ev ustore.MountEvent) {
		if ev.Remounted {
			say("ClientLib: transparently remounted on %s", ev.Host)
		}
	}
	master.OnHostDead = func(h string) { say("Master: host %s declared dead (missed heartbeats)", h) }
	master.OnFailoverDone = func(h string, took time.Duration) {
		say("Master: %s's disks re-homed + re-exported in %s", h, took.Truncate(10*time.Millisecond))
	}

	// Stream chunks; each write retries internally across the failover.
	chunk := make([]byte, 4<<20)
	written := 0
	var stalled time.Duration
	var writeNext func(off int64)
	writeNext = func(off int64) {
		if off+int64(len(chunk)) > alloc.Size {
			say("backup complete: %d chunks, total stall %s", written, stalled.Truncate(10*time.Millisecond))
			return
		}
		start := cluster.Sched.Now()
		client.Write(alloc.Space, off, chunk, func(err error) {
			if err != nil {
				log.Fatalf("write at %d: %v", off, err)
			}
			took := cluster.Sched.Now() - start
			if took > time.Second {
				stalled += took
				say("chunk %d stalled %s (failover window)", written, took.Truncate(10*time.Millisecond))
			}
			written++
			writeNext(off + int64(len(chunk)))
		})
	}
	writeNext(0)

	// Crash the serving host mid-stream.
	cluster.Sched.FireAfter(5*time.Second, func() {
		say("CRASH: killing host %s", alloc.Host)
		cluster.CrashHost(alloc.Host)
	})

	cluster.Settle(10 * time.Minute)
	say("final placement:")
	for _, h := range cluster.Fabric.Hosts() {
		say("  %s: %d disks", h, cluster.DiskCountOn(h))
	}
	if got := client.MountedOn(alloc.Space); got == alloc.Host {
		log.Fatal("still mounted on the dead host")
	} else {
		say("volume now served by %s; %d transparent remounts", got, client.Remounts)
	}
}
