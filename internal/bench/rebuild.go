package bench

import (
	"fmt"
	"time"

	"ustore/internal/core"
	"ustore/internal/fabric"
)

// AblateRebuild implements §IV-E's proposed extension: when a failed
// disk's data must be re-replicated from a surviving replica to a fresh
// disk, the fabric can first switch the *source* disk to the rebuilding
// host, turning a network copy into a host-local one. The experiment runs
// a real copy through the cluster both ways and reports the network bytes
// and elapsed time.
func AblateRebuild() *Table {
	t := &Table{
		ID:     "ablate-rebuild",
		Title:  "Replica rebuild: network copy vs fabric-offloaded local copy (512MB)",
		Header: []string{"Strategy", "Network bytes", "Elapsed"},
		Notes: []string{
			"§IV-E: \"the involved disk can be switched to one or a small set of servers in order to reduce network load\"",
		},
	}
	for _, offload := range []bool{false, true} {
		bytes, took, err := measureRebuild(offload)
		name := "network copy (source stays put)"
		if offload {
			name = "fabric offload (source switched first)"
		}
		if err != nil {
			t.Rows = append(t.Rows, []string{name, "err: " + err.Error(), ""})
			continue
		}
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%.0f MB", float64(bytes)/1e6), took.Truncate(10 * time.Millisecond).String(),
		})
	}
	return t
}

// measureRebuild copies copySize bytes from a source space (host A) into a
// destination space (host B) with a copy agent running on host B. With
// offload, the source disk's group is switched to host B first.
func measureRebuild(offload bool) (netBytes uint64, took time.Duration, err error) {
	const (
		copySize  = 512 << 20
		chunkSize = 4 << 20
	)
	cfg := core.DefaultConfig()
	c, err := core.NewCluster(cfg)
	if err != nil {
		return 0, 0, err
	}
	c.Settle(10 * time.Second)
	m := c.ActiveMaster()
	if m == nil {
		return 0, 0, fmt.Errorf("no active master")
	}

	// Source replica on h1 (client hinted to h1), rebuild target on h4.
	srcClient := c.Client("h1-src", "replica-src")
	dstHost := "h4"
	agent := c.Client(dstHost+"-agent", "rebuild-agent")

	var src, dst core.AllocateReply
	var fail error
	srcClient.Allocate(copySize+chunkSize, func(rep core.AllocateReply, err error) { src, fail = rep, err })
	c.Settle(3 * time.Second)
	if fail != nil {
		return 0, 0, fmt.Errorf("allocating source: %w", fail)
	}
	agent.Allocate(copySize+chunkSize, func(rep core.AllocateReply, err error) { dst, fail = rep, err })
	c.Settle(3 * time.Second)
	if fail != nil {
		return 0, 0, fmt.Errorf("allocating destination: %w", fail)
	}
	if dst.Host != dstHost {
		return 0, 0, fmt.Errorf("destination landed on %s, want %s", dst.Host, dstHost)
	}

	if offload {
		// Switch the source disk's co-moving group to the rebuild host.
		cmd := core.ExecuteArgs{Force: true}
		for _, g := range c.Fabric.CoMovingGroups() {
			has := false
			for _, d := range g {
				if string(d) == src.DiskID {
					has = true
				}
			}
			if has {
				for _, d := range g {
					cmd.Pairs = append(cmd.Pairs, fabric.DiskHost{Disk: d, Host: dstHost})
				}
			}
		}
		var execErr error = fmt.Errorf("pending")
		m.ExecuteTopology(cmd, func(err error) { execErr = err })
		c.Settle(15 * time.Second)
		if execErr != nil {
			return 0, 0, fmt.Errorf("offload switch: %w", execErr)
		}
	}

	for _, space := range []core.SpaceID{src.Space, dst.Space} {
		space := space
		agent.Mount(space, func(err error) { fail = err })
		c.Settle(3 * time.Second)
		if fail != nil {
			return 0, 0, fmt.Errorf("mounting %s: %w", space, fail)
		}
	}

	startBytes := c.Net.Stats().Bytes
	start := c.Sched.Now()
	copyDone := false
	var doneAt time.Duration
	var copyErr error
	var copyChunk func(off int64)
	copyChunk = func(off int64) {
		if off >= copySize {
			copyDone = true
			doneAt = c.Sched.Now()
			return
		}
		agent.Read(src.Space, off, chunkSize, func(data []byte, err error) {
			if err != nil {
				copyErr = err
				copyDone = true
				return
			}
			// Write keeps its payload across remount retries; data is only
			// valid until this callback returns.
			agent.Write(dst.Space, off, append([]byte(nil), data...), func(err error) {
				if err != nil {
					copyErr = err
					copyDone = true
					return
				}
				copyChunk(off + chunkSize)
			})
		})
	}
	copyChunk(0)
	c.Settle(30 * time.Minute)
	if !copyDone {
		return 0, 0, fmt.Errorf("copy incomplete")
	}
	if copyErr != nil {
		return 0, 0, fmt.Errorf("copy: %w", copyErr)
	}
	return c.Net.Stats().Bytes - startBytes, doneAt - start, nil
}
