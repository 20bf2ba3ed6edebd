// Package placement holds UStore's storage-placement policies, extracted
// from the Master so the single-unit allocator (§IV-A) and the fleet-scale
// cross-unit placer share one tested implementation.
//
// Two policies live here:
//
//   - PickSingle: the paper's §IV-A single-disk allocation rules
//     (same-service disk affinity, then client locality, then any unowned
//     disk, then any disk with room), used by core.Master.
//   - Spread: failure-domain-aware multi-fragment placement for the fleet
//     subsystem — spread a volume's replicas/EC fragments across distinct
//     failure domains (host < hub < unit < rack), preferring unused racks
//     and already-spinning disks so placement stays inside each unit's
//     power budget.
//
// Both are pure functions over caller-supplied candidate views: callers
// own the state (SysStat, heartbeat digests) and determinism (candidates
// must arrive in a stable order — sorted by disk ID unless noted). A
// placer that decides again and again over the same disks (the fleet's
// ShardMaster) keeps an Index instead: the views held resident, updated in
// place, and read by the same selection Spread runs.
package placement

// DiskView is one allocation candidate as the caller's state machine sees
// it. Callers pre-filter unusable disks (offline hosts, powered-off or
// quarantined disks, insufficient free space) and pass survivors sorted by
// ID so selection is deterministic.
type DiskView struct {
	// ID is the disk's global identifier.
	ID string
	// Host is the disk's current attachment.
	Host string
	// Owner is the service owning the disk ("" = unowned).
	Owner string
	// Free is the disk's remaining capacity in bytes.
	Free int64
	// Spinning reports whether the disk motor is up (spun-down archival
	// disks cost a spin-up — and power budget — to use).
	Spinning bool
	// Loc places the disk in the failure-domain hierarchy (Spread only;
	// PickSingle ignores it).
	Loc Location
}

// PickSingle applies the §IV-A allocation rules to candidates (which must
// be pre-filtered and sorted by ID):
//
//  1. prefer a disk already owned by the same service;
//  2. otherwise prefer an unowned disk on the client's nearest host;
//  3. fall back to any unowned disk, then any candidate with room.
//
// It returns the chosen disk ID, or "" if candidates is empty.
func PickSingle(candidates []DiskView, service, clientHost string) string {
	// Rule 1: same-service affinity.
	for _, d := range candidates {
		if d.Owner == service {
			return d.ID
		}
	}
	// Rule 2: locality — an unowned disk on the client's host.
	for _, d := range candidates {
		if d.Owner == "" && d.Host == clientHost {
			return d.ID
		}
	}
	// Fall back: any unowned disk, then any disk with room.
	for _, d := range candidates {
		if d.Owner == "" {
			return d.ID
		}
	}
	if len(candidates) > 0 {
		return candidates[0].ID
	}
	return ""
}
