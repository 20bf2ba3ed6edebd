// Package hdfs implements a miniature HDFS-like replicated file service —
// the upper-layer service the paper deploys over UStore in §VII-B to show
// that disk switching looks like a tolerable temporary failure: writes
// stall for a few seconds and resume; reads are not interrupted because
// other replicas serve them.
//
// The design mirrors Hadoop 1.x at block granularity: a NameNode maps files
// to block lists and blocks to replica DataNodes; DataNodes store blocks in
// UStore volumes mounted through the ClientLib; clients write through a
// replication pipeline and read from any live replica.
package hdfs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"ustore/internal/core"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// BlockSize is the HDFS block size (small for simulation economy; Hadoop
// 1.x used 64MB).
const BlockSize = 4 << 20

// DefaultReplication matches the paper's 3-replica configuration.
const DefaultReplication = 3

// Errors returned by the service.
var (
	// ErrNoSuchFile is returned for reads of unknown files.
	ErrNoSuchFile = errors.New("hdfs: no such file")
	// ErrNotEnoughNodes is returned when fewer DataNodes than the
	// replication factor are alive.
	ErrNotEnoughNodes = errors.New("hdfs: not enough datanodes")
	// ErrAllReplicasFailed is returned when no replica served a block.
	ErrAllReplicasFailed = errors.New("hdfs: all replicas failed")
)

// blockID identifies a block.
type blockID string

// fileEntry is the NameNode's per-file metadata.
type fileEntry struct {
	size   int64
	blocks []blockID
}

// blockEntry records a block's replica locations.
type blockEntry struct {
	locations []string // datanode names, pipeline order
	size      int
}

// --- Wire types ---

// addBlockArgs is one attempt to add a block to a file. Seq numbers the
// client's attempts, so the namenode answers a repeat of the latest for the
// file from its record and refuses an older one. Since is the Seq of this
// block's first attempt: a latest attempt at or after it was this block's,
// and failed, so its block leaves the file.
type addBlockArgs struct {
	File       string
	Size       int
	Seq, Since uint64
}

type addBlockReply struct {
	Block    blockID
	Pipeline []string
}

type locateArgs struct {
	File string
}

type locateReply struct {
	Size   int64
	Blocks []blockID
	// Locations maps block -> replica datanodes.
	Locations map[blockID][]string
	Sizes     map[blockID]int
}

type commitBlockArgs struct {
	File  string
	Block blockID
}

type dnWriteArgs struct {
	Block blockID
	Data  []byte
	// Pipeline carries the remaining downstream datanodes.
	Pipeline []string
}

type dnReadArgs struct {
	Block blockID
}

type dnRegisterArgs struct {
	Name string
}

// NameNode is the metadata server.
type NameNode struct {
	rpc   *simnet.RPCNode
	sched *simtime.Scheduler

	files  map[string]*fileEntry
	blocks map[blockID]*blockEntry
	nodes  []string
	next   uint64
	rr     int
	// adds holds each client's latest AddBlock per file, and its reply.
	adds map[addKey]addedBlock
}

type addKey struct{ client, file string }

type addedBlock struct {
	seq   uint64
	reply addBlockReply
}

// NewNameNode creates the namenode listening as "nn:<name>".
func NewNameNode(net *simnet.Network, name string) *NameNode {
	nn := &NameNode{
		rpc:    simnet.NewRPCNode(net, "nn:"+name),
		sched:  net.Scheduler(),
		files:  make(map[string]*fileEntry),
		blocks: make(map[blockID]*blockEntry),
		adds:   make(map[addKey]addedBlock),
	}
	nn.rpc.Register("Register", nn.handleRegister)
	nn.rpc.Register("AddBlock", nn.handleAddBlock)
	nn.rpc.Register("CommitBlock", nn.handleCommitBlock)
	nn.rpc.Register("Locate", nn.handleLocate)
	return nn
}

func (nn *NameNode) handleRegister(from string, args any) (any, error) {
	r := args.(dnRegisterArgs)
	for _, n := range nn.nodes {
		if n == r.Name {
			return struct{}{}, nil
		}
	}
	nn.nodes = append(nn.nodes, r.Name)
	sort.Strings(nn.nodes)
	return struct{}{}, nil
}

func (nn *NameNode) handleAddBlock(from string, args any) (any, error) {
	a := args.(addBlockArgs)
	key := addKey{from, a.File}
	last := nn.adds[key]
	switch {
	case a.Seq == last.seq:
		return last.reply, nil
	case a.Seq < last.seq: // its client has given up on it
		return nil, errors.New("hdfs: stale AddBlock attempt")
	}
	if len(nn.nodes) < DefaultReplication {
		return nil, fmt.Errorf("%w: %d registered", ErrNotEnoughNodes, len(nn.nodes))
	}
	f := nn.files[a.File]
	if f == nil {
		f = &fileEntry{}
		nn.files[a.File] = f
	}
	if failed := last.reply.Block; last.seq != 0 && last.seq >= a.Since {
		f.blocks = slices.DeleteFunc(f.blocks, func(b blockID) bool { return b == failed })
		f.size -= int64(nn.blocks[failed].size)
		delete(nn.blocks, failed)
	}
	nn.next++
	b := blockID(fmt.Sprintf("blk_%d", nn.next))
	// Round-robin pipeline placement over registered datanodes.
	pipeline := make([]string, DefaultReplication)
	for i := range pipeline {
		pipeline[i] = nn.nodes[(nn.rr+i)%len(nn.nodes)]
	}
	nn.rr++
	nn.blocks[b] = &blockEntry{locations: pipeline, size: a.Size}
	f.blocks = append(f.blocks, b)
	f.size += int64(a.Size)
	rep := addBlockReply{Block: b, Pipeline: pipeline}
	nn.adds[key] = addedBlock{a.Seq, rep}
	return rep, nil
}

func (nn *NameNode) handleCommitBlock(from string, args any) (any, error) {
	return struct{}{}, nil // placement already durable in this model
}

func (nn *NameNode) handleLocate(from string, args any) (any, error) {
	l := args.(locateArgs)
	f, ok := nn.files[l.File]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchFile, l.File)
	}
	rep := locateReply{
		Size:      f.size,
		Blocks:    append([]blockID(nil), f.blocks...),
		Locations: make(map[blockID][]string),
		Sizes:     make(map[blockID]int),
	}
	for _, b := range f.blocks {
		be := nn.blocks[b]
		rep.Locations[b] = append([]string(nil), be.locations...)
		rep.Sizes[b] = be.size
	}
	return rep, nil
}

// DataNode stores blocks inside a UStore space mounted via the ClientLib.
type DataNode struct {
	name  string
	rpc   *simnet.RPCNode
	sched *simtime.Scheduler
	cl    *core.ClientLib
	nn    string

	space  core.SpaceID
	size   int64
	offset int64
	blocks map[blockID]blockLoc

	ready bool
}

type blockLoc struct {
	off    int64
	size   int
	stored bool // a write of the block has completed
}

// NewDataNode creates a datanode named name whose storage is a UStore
// space allocated through cl (the §VII-B deployment: "using disks in
// UStore as storage").
func NewDataNode(net *simnet.Network, name, nameNode string, cl *core.ClientLib) *DataNode {
	dn := &DataNode{
		name:   name,
		rpc:    simnet.NewRPCNode(net, "dn:"+name),
		sched:  net.Scheduler(),
		cl:     cl,
		nn:     "nn:" + nameNode,
		blocks: make(map[blockID]blockLoc),
	}
	dn.initHandlers()
	return dn
}

// Start allocates and mounts the datanode's UStore volume, registers with
// the namenode, and reports readiness.
func (dn *DataNode) Start(volBytes int64, done func(error)) {
	dn.cl.Allocate(volBytes, func(rep core.AllocateReply, err error) {
		if err != nil {
			done(fmt.Errorf("allocating datanode volume: %w", err))
			return
		}
		dn.space = rep.Space
		dn.size = rep.Size
		dn.cl.Mount(rep.Space, func(err error) {
			if err != nil {
				done(fmt.Errorf("mounting datanode volume: %w", err))
				return
			}
			dn.rpc.Call(dn.nn, "Register", dnRegisterArgs{Name: dn.name}, 32, time.Second,
				func(_ any, err error) {
					if err != nil {
						done(err)
						return
					}
					dn.ready = true
					done(nil)
				})
		})
	})
}

// Space returns the datanode's UStore space.
func (dn *DataNode) Space() core.SpaceID { return dn.space }

// initHandlers wires the block protocol: WriteBlock stores the block
// locally then forwards down the pipeline, replying upstream only after
// downstream acks (chain replication, like the HDFS write pipeline);
// ReadBlock serves a stored block.
func (dn *DataNode) initHandlers() {
	dn.rpc.RegisterAsync("WriteBlock", func(from string, args any, reply *simnet.AsyncReply) {
		w := args.(dnWriteArgs)
		if !dn.ready {
			reply.Reply(nil, fmt.Errorf("hdfs: datanode %s not ready", dn.name))
			return
		}
		// A block's place is reserved when its first write arrives, so a
		// repeat writes the same place, even while that write is in flight.
		loc, known := dn.blocks[w.Block]
		if !known {
			if dn.offset+int64(len(w.Data)) > dn.size {
				reply.Reply(nil, fmt.Errorf("hdfs: datanode %s volume full", dn.name))
				return
			}
			loc = blockLoc{off: dn.offset, size: len(w.Data)}
			dn.blocks[w.Block] = loc
			dn.offset += int64(len(w.Data))
		}
		dn.cl.Write(dn.space, loc.off, w.Data, func(err error) {
			if err != nil {
				reply.Reply(nil, fmt.Errorf("datanode %s store: %w", dn.name, err))
				return
			}
			loc.stored = true
			dn.blocks[w.Block] = loc
			if len(w.Pipeline) == 0 {
				reply.Reply(struct{}{}, nil)
				return
			}
			next := w.Pipeline[0]
			fw := dnWriteArgs{Block: w.Block, Data: w.Data, Pipeline: w.Pipeline[1:]}
			dn.rpc.Call("dn:"+next, "WriteBlock", fw, len(w.Data), 40*time.Second,
				func(_ any, err error) {
					if err != nil {
						reply.Reply(nil, fmt.Errorf("pipeline to %s: %w", next, err))
						return
					}
					reply.Reply(struct{}{}, nil)
				})
		})
	})
	dn.rpc.RegisterAsync("ReadBlock", func(from string, args any, reply *simnet.AsyncReply) {
		r := args.(dnReadArgs)
		loc, ok := dn.blocks[r.Block]
		if !ok || !loc.stored {
			reply.Reply(nil, fmt.Errorf("hdfs: %s has no %s", dn.name, r.Block))
			return
		}
		dn.cl.Read(dn.space, loc.off, loc.size, func(data []byte, err error) {
			if err != nil {
				reply.Reply(nil, err)
				return
			}
			// The reply travels as an RPC payload long after this callback
			// returns, and data is only valid until then.
			reply.Reply(append([]byte(nil), data...), nil)
		})
	})
}

// Client writes and reads files against the namenode and datanodes.
type Client struct {
	rpc   *simnet.RPCNode
	sched *simtime.Scheduler
	nn    string
	seq   uint64 // numbers AddBlock attempts (addBlockArgs.Seq)

	// WriteStalls counts write attempts that had to retry (the §VII-B
	// observation: "the HDFS client encounters error only for several
	// seconds, then it resumes").
	WriteStalls uint64
	// StallTime accumulates total time spent retrying.
	StallTime time.Duration
}

// NewClient creates an HDFS client named name.
func NewClient(net *simnet.Network, name, nameNode string) *Client {
	return &Client{
		rpc:   simnet.NewRPCNode(net, "hdfs:"+name),
		sched: net.Scheduler(),
		nn:    "nn:" + nameNode,
	}
}

// writeRetryBudget bounds per-block retries.
const writeRetryBudget = 60 * time.Second

// WriteFile stores data as name, block by block through the replication
// pipeline, retrying stalled blocks until the budget expires.
func (c *Client) WriteFile(name string, data []byte, done func(error)) {
	var writeBlock func(off int)
	writeBlock = func(off int) {
		if off >= len(data) {
			done(nil)
			return
		}
		end := off + BlockSize
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		deadline := c.sched.Now() + writeRetryBudget
		since := c.seq + 1
		var attempt func()
		attempt = func() {
			c.seq++
			c.rpc.Call(c.nn, "AddBlock", addBlockArgs{File: name, Size: len(chunk), Seq: c.seq, Since: since}, 64, 2*time.Second,
				func(res any, err error) {
					if err != nil {
						c.retryOrFail(deadline, attempt, done, err)
						return
					}
					rep := res.(addBlockReply)
					first := rep.Pipeline[0]
					args := dnWriteArgs{Block: rep.Block, Data: chunk, Pipeline: rep.Pipeline[1:]}
					c.rpc.Call("dn:"+first, "WriteBlock", args, len(chunk), 40*time.Second,
						func(_ any, err error) {
							if err != nil {
								c.retryOrFail(deadline, attempt, done, err)
								return
							}
							c.rpc.Call(c.nn, "CommitBlock", commitBlockArgs{File: name, Block: rep.Block},
								32, 2*time.Second, func(any, error) {})
							writeBlock(end)
						})
				})
		}
		attempt()
	}
	writeBlock(0)
}

func (c *Client) retryOrFail(deadline simtime.Time, attempt func(), done func(error), err error) {
	if c.sched.Now() >= deadline {
		done(fmt.Errorf("hdfs: write stalled past budget: %w", err))
		return
	}
	c.WriteStalls++
	const backoff = 1 * time.Second
	c.StallTime += backoff
	c.sched.FireAfter(backoff, attempt)
}

// ReadFile fetches name, trying each replica of each block in order.
func (c *Client) ReadFile(name string, done func([]byte, error)) {
	c.rpc.Call(c.nn, "Locate", locateArgs{File: name}, 64, 2*time.Second, func(res any, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		rep := res.(locateReply)
		out := make([]byte, 0, rep.Size)
		var fetch func(i int)
		fetch = func(i int) {
			if i >= len(rep.Blocks) {
				done(out, nil)
				return
			}
			b := rep.Blocks[i]
			locs := rep.Locations[b]
			var tryReplica func(j int, lastErr error)
			tryReplica = func(j int, lastErr error) {
				if j >= len(locs) {
					done(nil, fmt.Errorf("%w: %s (%v)", ErrAllReplicasFailed, b, lastErr))
					return
				}
				c.rpc.Call("dn:"+locs[j], "ReadBlock", dnReadArgs{Block: b}, 64, 5*time.Second,
					func(res any, err error) {
						if err != nil {
							tryReplica(j+1, err)
							return
						}
						out = append(out, res.([]byte)...)
						fetch(i + 1)
					})
			}
			tryReplica(0, nil)
		}
		fetch(0)
	})
}
