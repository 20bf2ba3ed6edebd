package fleet

// Wire types for the shard metadata protocol. Every reply embeds ShardReply
// so routers can handle leadership and routing outcomes uniformly.

// ShardReply is the routing envelope on every shard response.
type ShardReply struct {
	// OK reports the operation was accepted and executed.
	OK bool
	// NotLeader means this replica does not lead the shard group; the
	// caller should rotate to another replica.
	NotLeader bool
	// Stale means the caller's map routed the volume to the wrong shard;
	// Map carries the replier's (newer) installed map.
	Stale bool
	// Busy means the volume's slot is frozen for migration; retry shortly.
	Busy bool
	// Err is a terminal operation error ("" if none).
	Err string
	// Map is attached to Stale replies (and FetchMap) so one round trip
	// repairs the caller's cache.
	Map *ShardMap
}

// common lets routers extract the envelope from any concrete reply.
func (r ShardReply) common() ShardReply { return r }

type shardReplier interface{ common() ShardReply }

// VolRecord is a volume's replicated metadata: its size, owning service,
// and the disks holding its fragments. Disks is never written in place (repair
// and FreeForeign install a new slice), so replies share it: read-only.
type VolRecord struct {
	Size    int64
	Service string
	Disks   []string
	// lookup is the leader's Lookup answer for this record, shared by every
	// Lookup until Size or Disks changes (see execLookup). Not persisted.
	lookup *LookupReply
}

func (v VolRecord) clone() VolRecord {
	v.Disks = append([]string(nil), v.Disks...)
	v.lookup = nil
	return v
}

// AllocateArgs asks the owning shard to place a new volume.
type AllocateArgs struct {
	Volume  string
	Size    int64
	Service string
	// ClientHost hints locality (may be "").
	ClientHost string
}

// AllocateReply returns the chosen fragment disks.
type AllocateReply struct {
	ShardReply
	Disks []string
}

// LookupArgs resolves a volume's fragment locations.
type LookupArgs struct{ Volume string }

// LookupReply carries the volume record. The shard sends a *LookupReply,
// which it may share with other Lookups of the same record: read-only.
type LookupReply struct {
	ShardReply
	Size  int64
	Disks []string
}

// ReleaseArgs frees a volume.
type ReleaseArgs struct{ Volume string }

// ReleaseReply acknowledges the free.
type ReleaseReply struct{ ShardReply }

// HeartbeatArgs is a unit agent's periodic report to its owning shard. The
// Dead and Draining lists are cumulative, so a freshly elected leader
// rebuilds disk health from the very next heartbeat.
type HeartbeatArgs struct {
	Unit     string
	Seq      uint64
	Dead     []string
	Draining []string
}

// HeartbeatReply acknowledges a heartbeat.
type HeartbeatReply struct{ ShardReply }

// FetchMapArgs asks any replica for its installed shard map.
type FetchMapArgs struct{}

// FetchMapReply carries the map.
type FetchMapReply struct{ ShardReply }

// FreezeSlotArgs fences a slot for migration: volume ops on it answer Busy
// until the epoch flips.
type FreezeSlotArgs struct{ Slot int }

// FreezeSlotReply acknowledges the fence.
type FreezeSlotReply struct{ ShardReply }

// HandoffArgs asks the source leader for a frozen slot's volume records.
type HandoffArgs struct{ Slot int }

// HandoffReply carries the records to install on the destination.
type HandoffReply struct {
	ShardReply
	Vols map[string]VolRecord
}

// InstallSlotArgs persists a migrated slot's records on the destination.
type InstallSlotArgs struct {
	Slot int
	Vols map[string]VolRecord
}

// InstallSlotReply acknowledges after the records are committed.
type InstallSlotReply struct{ ShardReply }

// DropSlotArgs retires a migrated slot on the source: records move to the
// export ledger (their fragments still occupy source disks until the new
// owner migrates them home).
type DropSlotArgs struct{ Slot int }

// DropSlotReply acknowledges after the ledger is committed.
type DropSlotReply struct{ ShardReply }

// InstallMapArgs broadcasts a new map epoch to shard leaders.
type InstallMapArgs struct{ Map *ShardMap }

// InstallMapReply acknowledges the install.
type InstallMapReply struct{ ShardReply }

// FreeForeignArgs tells the shard whose disks still hold an exported
// volume's fragments that those bytes are free (the new owner re-placed
// them, or released the volume).
type FreeForeignArgs struct {
	Volume string
	Disks  []string
}

// FreeForeignReply acknowledges after the export ledger entry is deleted.
type FreeForeignReply struct{ ShardReply }
