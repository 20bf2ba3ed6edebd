package fleet

import "hash/fnv"

// NumSlots is the fixed number of volume hash slots the shard map divides
// the keyspace into. Slots — not volumes — are the unit of metadata
// migration, so the map stays tiny and a router cache is a single epoch
// compare away from validity.
const NumSlots = 64

// SlotOf hashes a volume ID onto its slot. The modulo runs in uint32 so
// hashes above MaxInt32 stay non-negative on 32-bit-int platforms.
func SlotOf(volumeID string) int {
	h := fnv.New32a()
	h.Write([]byte(volumeID))
	return int(h.Sum32() % NumSlots)
}

// ShardMap is the routing table clients cache: which metadata shard owns
// each volume hash slot, and where each shard's replicas run. Epoch bumps
// on every slot move; a shard refusing a call as stale attaches its newer
// map (StaleError).
type ShardMap struct {
	// Epoch is the map version; higher wins.
	Epoch int64
	// Slots maps slot index -> owning shard.
	Slots [NumSlots]int
	// Replicas[k] lists shard k's replica node names (leader is discovered
	// by probing).
	Replicas [][]string
}

// initialMap assigns slots round-robin over shards.
func initialMap(shards int, replicas [][]string) *ShardMap {
	m := &ShardMap{Epoch: 1, Replicas: replicas}
	for s := 0; s < NumSlots; s++ {
		m.Slots[s] = s % shards
	}
	return m
}

// Clone deep-copies the map.
func (m *ShardMap) Clone() *ShardMap {
	if m == nil {
		return nil
	}
	c := &ShardMap{Epoch: m.Epoch, Slots: m.Slots}
	for _, r := range m.Replicas {
		c.Replicas = append(c.Replicas, append([]string(nil), r...))
	}
	return c
}

// ShardOf returns the shard owning a volume under this map.
func (m *ShardMap) ShardOf(volumeID string) int {
	return m.Slots[SlotOf(volumeID)]
}
