package model

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"
	"strconv"
	"strings"
)

// SearchBudget caps the number of DFS nodes the per-partition
// linearizability search may expand. Real chaos histories are almost
// sequential (only client windows overlap anything), so the search visits
// about one node per op; the cap exists to bound adversarial
// interleavings. A partition that exhausts it is reported as inconclusive,
// not violating.
const SearchBudget = 1 << 20

// Violation is one partition whose history admits no linearization.
type Violation struct {
	// Partition names the space or disk ("space <id>" / "disk <id>").
	Partition string
	// Msg explains the deepest point the search got stuck, quoting the ops
	// that could not be linearized and why the model rejected them.
	Msg string
}

// Result summarizes one Check call.
type Result struct {
	// Ops is the number of completed operations checked (pending ops are
	// dropped — they observed nothing).
	Ops int
	// Partitions is how many per-space / per-disk histories were searched.
	Partitions int
	// Violations lists the partitions with no valid linearization, in
	// partition order.
	Violations []Violation
	// BudgetExceeded counts partitions whose search hit SearchBudget
	// (inconclusive; not counted as violations).
	BudgetExceeded int
}

// Check partitions the history per space and per disk and searches each
// partition for a linearization accepted by the reference model. Space
// partitions hold Allocate/Release/Lookup/Mount/Remount/Export/Revoke;
// disk partitions hold Attach/Detach/Power. Partitioning is sound because
// the model couples no state across spaces or disks.
func Check(ops []Op) Result {
	var p partitions
	for i := range ops {
		p.add(&ops[i])
	}
	return p.check()
}

// partKey names one partition: a disk or a space.
type partKey struct {
	disk bool
	id   string
}

func (k partKey) String() string {
	if k.disk {
		return "disk " + k.id
	}
	return "space " + k.id
}

// compare orders partitions by name: every "disk …" before every
// "space …", then by ID.
func (k partKey) compare(o partKey) int {
	switch {
	case k.disk == o.disk:
		return strings.Compare(k.id, o.id)
	case k.disk:
		return -1
	}
	return 1
}

// keyOf names op's partition; ok is false for an op that names no space or
// disk it belongs to.
func keyOf(op *Op) (k partKey, ok bool) {
	switch op.Kind {
	case OpAttach, OpDetach, OpPower:
		return partKey{disk: true, id: op.Disk}, op.Disk != ""
	default:
		return partKey{id: op.Space}, op.Space != ""
	}
}

// partitions collects the completed ops, pointing at them where they are
// stored. check sorts them into runs, one per partition, each in invoke
// order, so filing an op costs no map and no per-partition slice.
type partitions struct {
	ops []*Op
}

// add files op; pending ops and ops that name no space or disk are
// dropped.
func (p *partitions) add(op *Op) {
	if _, ok := keyOf(op); ok && op.Done {
		p.ops = append(p.ops, op)
	}
}

// check searches every partition, in key order.
func (p *partitions) check() Result {
	res := Result{Ops: len(p.ops)}
	// Stable, so ops equal in all three keep the order add saw them in.
	slices.SortStableFunc(p.ops, func(a, b *Op) int {
		ka, _ := keyOf(a)
		kb, _ := keyOf(b)
		return cmp.Or(ka.compare(kb), cmp.Compare(a.Invoke, b.Invoke), cmp.Compare(a.ID, b.ID))
	})
	var spaces search[spaceState]
	var disks search[diskState]
	for lo := 0; lo < len(p.ops); {
		key, _ := keyOf(p.ops[lo])
		hi := lo + 1
		for hi < len(p.ops) {
			if k, _ := keyOf(p.ops[hi]); k != key {
				break
			}
			hi++
		}
		run := p.ops[lo:hi]
		lo = hi
		res.Partitions++
		var outcome searchOutcome
		var stuck []string
		if key.disk {
			outcome, stuck = disks.linearize(run, diskState{}, SearchBudget)
		} else {
			// A space partition with no recorded Allocate (the allocation
			// predates the history or its reply was lost) starts allocated
			// with unknown geometry, so extent checks are skipped but lease
			// tracking still applies.
			hasAlloc := false
			for _, op := range run {
				if op.Kind == OpAllocate {
					hasAlloc = true
					break
				}
			}
			outcome, stuck = spaces.linearize(run, spaceState{allocated: !hasAlloc}, SearchBudget)
		}
		switch outcome {
		case searchBudget:
			res.BudgetExceeded++
		case searchFail:
			res.Violations = append(res.Violations, Violation{
				Partition: key.String(),
				Msg:       fmt.Sprintf("no linearization: %s", strings.Join(stuck, "; ")),
			})
		}
	}
	return res
}

type searchOutcome int

const (
	searchOK searchOutcome = iota
	searchFail
	searchBudget
)

// linearize runs a Wing & Gong search over one partition, whose ops run
// holds in invoke order: repeatedly pick a remaining op no other remaining
// op strictly precedes in real time (its invoke is at or before every
// remaining return) and try to apply it to the model, backtracking on
// rejection.
//
// The remaining set is represented as (lo, skipped): ops[lo:] is the
// untouched suffix of the invoke-sorted ops, and skipped holds the few
// earlier ops the search jumped over. Chaos histories are almost
// sequential, so skipped stays tiny (the window-overlap degree) and each
// node costs O(overlap) instead of O(n) — that difference is what lets
// 100-day soak histories with tens of thousands of lookups check in
// milliseconds. Visited (state, lo, skipped) nodes are memoized. On failure
// it returns the rejection reasons collected at the deepest prefix the
// search reached — the ops that actually could not be placed — capped at
// three.
//
// s is reused from partition to partition: its buffers and its memo keep
// their capacity, so a partition that branches nowhere allocates nothing.
func (s *search[S]) linearize(run []*Op, init S, budget int) (searchOutcome, []string) {
	n := len(run)
	s.ops = run
	// suffixMin[i] = min Return over ops[i:].
	s.suffixMin = slices.Grow(s.suffixMin[:0], n+1)[:n+1]
	s.suffixMin[n] = int64(^uint64(0) >> 1)
	for i := n - 1; i >= 0; i-- {
		s.suffixMin[i] = s.suffixMin[i+1]
		if r := int64(s.ops[i].Return); r < s.suffixMin[i] {
			s.suffixMin[i] = r
		}
	}
	s.visited.reset()
	s.nodes, s.budget, s.bestDepth, s.bestStuck = 0, budget, -1, s.bestStuck[:0]
	out := s.dfs(init, nil, 0, 0)
	if out == searchOK || out == searchBudget {
		return out, nil
	}
	var stuck []string
	for _, r := range s.bestStuck {
		if text := fmt.Sprintf("%s: %s", r.op, r.reason); !slices.Contains(stuck, text) {
			stuck = append(stuck, text)
		}
	}
	if len(stuck) > 3 {
		stuck = stuck[:3]
	}
	if len(stuck) == 0 {
		stuck = []string{"empty candidate set (ops overlap inconsistently)"}
	}
	return searchFail, stuck
}

// stateOf is what the search needs of a partition's state: a value type
// whose apply returns the successor state by value, or a non-empty reason
// the op is illegal here, and whose memo key appends to a buffer.
type stateOf[S any] interface {
	apply(op *Op) (S, string)
	appendKey(b []byte) []byte
}

type search[S stateOf[S]] struct {
	ops       []*Op
	suffixMin []int64
	visited   memo
	key       []byte // the memo key buffer, reused by every node
	nodes     int
	budget    int
	bestDepth int
	bestStuck []rejection
}

// rejection is one op the model refused and why. The search notes one at
// every branch that fails, so it is formatted only when the partition turns
// out to have no linearization.
type rejection struct {
	op     *Op
	reason string
}

// dfs linearizes the remaining ops — skipped (sorted indices < lo) plus the
// suffix ops[lo:] — from state st. depth counts committed ops.
func (s *search[S]) dfs(st S, skipped []int, lo, depth int) searchOutcome {
	n := len(s.ops)
	if len(skipped) == 0 && lo >= n {
		return searchOK
	}
	s.nodes++
	if s.nodes > s.budget {
		return searchBudget
	}
	s.key = s.appendMemoKey(s.key[:0], st, skipped, lo)
	if !s.visited.insert(s.key) {
		return searchFail
	}

	// An op may linearize next only if no other remaining op finished
	// entirely before it was invoked.
	minRet := s.suffixMin[lo]
	for _, i := range skipped {
		if r := int64(s.ops[i].Return); r < minRet {
			minRet = r
		}
	}
	// Candidates in invoke order: the skipped ops (all earlier than lo),
	// then suffix ops whose invoke falls at or before minRet.
	for si, i := range skipped {
		if int64(s.ops[i].Invoke) > minRet {
			continue
		}
		next, reason := st.apply(s.ops[i])
		if reason != "" {
			s.noteStuck(depth, rejection{s.ops[i], reason})
			continue
		}
		rest := make([]int, 0, len(skipped)-1)
		rest = append(rest, skipped[:si]...)
		rest = append(rest, skipped[si+1:]...)
		if out := s.dfs(next, rest, lo, depth+1); out != searchFail {
			return out
		}
	}
	for i := lo; i < n && int64(s.ops[i].Invoke) <= minRet; i++ {
		next, reason := st.apply(s.ops[i])
		if reason != "" {
			s.noteStuck(depth, rejection{s.ops[i], reason})
			continue
		}
		rest := skipped
		if i > lo {
			rest = make([]int, 0, len(skipped)+i-lo)
			rest = append(rest, skipped...)
			for j := lo; j < i; j++ {
				rest = append(rest, j)
			}
		}
		if out := s.dfs(next, rest, i+1, depth+1); out != searchFail {
			return out
		}
	}
	return searchFail
}

// appendMemoKey appends the node's memo key — the state's key, "|", lo,
// then ",i" per skipped op — to b.
func (s *search[S]) appendMemoKey(b []byte, st S, skipped []int, lo int) []byte {
	b = st.appendKey(b)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(lo), 10)
	for _, i := range skipped {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(i), 10)
	}
	return b
}

// noteStuck records rejections at the deepest prefix reached, which is
// where the genuinely unplaceable op lives. linearize drops the ones that
// read the same as an earlier one.
func (s *search[S]) noteStuck(depth int, r rejection) {
	if depth > s.bestDepth {
		s.bestDepth = depth
		s.bestStuck = s.bestStuck[:0]
	}
	if depth == s.bestDepth && !slices.Contains(s.bestStuck, r) {
		s.bestStuck = append(s.bestStuck, r)
	}
}

// memo is the search's visited set of memo keys. It keeps no string per
// key: every key's bytes go into one growing arena, found through a 64-bit
// hash, and a hash hit compares the full key, so a collision costs a
// compare, never a wrong answer. reset empties it and keeps its capacity.
type memo struct {
	heads   map[uint64]int32 // hash -> its newest entry, plus one
	entries []memoEntry
	arena   []byte
}

type memoEntry struct {
	off, len int32 // the key's bytes: arena[off : off+len]
	next     int32 // the next entry of the same hash, plus one; 0 ends
}

var memoSeed = maphash.MakeSeed()

func (m *memo) reset() {
	if m.heads == nil {
		m.heads = make(map[uint64]int32)
	}
	clear(m.heads)
	m.entries, m.arena = m.entries[:0], m.arena[:0]
}

// insert adds key and reports whether it was new.
func (m *memo) insert(key []byte) bool {
	h := maphash.Bytes(memoSeed, key)
	head := m.heads[h]
	for e := head; e != 0; e = m.entries[e-1].next {
		me := m.entries[e-1]
		if string(m.arena[me.off:me.off+me.len]) == string(key) {
			return false
		}
	}
	m.entries = append(m.entries, memoEntry{off: int32(len(m.arena)), len: int32(len(key)), next: head})
	m.arena = append(m.arena, key...)
	m.heads[h] = int32(len(m.entries))
	return true
}
