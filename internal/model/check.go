package model

import (
	"fmt"
	"sort"
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

// partitions groups completed ops per space and per disk, pointing at the
// ops where they are stored.
type partitions struct {
	parts map[string][]*Op
	ops   int
}

// add files op under its partition; pending ops and ops that name no
// space or disk are dropped.
func (p *partitions) add(op *Op) {
	if !op.Done {
		return
	}
	var key string
	switch op.Kind {
	case OpAttach, OpDetach, OpPower:
		if op.Disk == "" {
			return
		}
		key = "disk " + op.Disk
	default:
		if op.Space == "" {
			return
		}
		key = "space " + op.Space
	}
	if p.parts == nil {
		p.parts = make(map[string][]*Op)
	}
	p.parts[key] = append(p.parts[key], op)
	p.ops++
}

// check searches every partition, in key order.
func (p *partitions) check() Result {
	res := Result{Ops: p.ops}
	keys := make([]string, 0, len(p.parts))
	for k := range p.parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	res.Partitions = len(keys)
	for _, key := range keys {
		pops := p.parts[key]
		var init state
		if strings.HasPrefix(key, "disk ") {
			init = diskState{}
		} else {
			// A space partition with no recorded Allocate (the allocation
			// predates the history or its reply was lost) starts allocated
			// with unknown geometry, so extent checks are skipped but lease
			// tracking still applies.
			hasAlloc := false
			for _, op := range pops {
				if op.Kind == OpAllocate {
					hasAlloc = true
					break
				}
			}
			init = spaceState{allocated: !hasAlloc}
		}
		switch outcome, stuck := linearize(pops, init, SearchBudget); outcome {
		case searchBudget:
			res.BudgetExceeded++
		case searchFail:
			res.Violations = append(res.Violations, Violation{
				Partition: key,
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

// linearize runs a Wing & Gong search over one partition: repeatedly pick a
// remaining op no other remaining op strictly precedes in real time (its
// invoke is at or before every remaining return) and try to apply it to the
// model, backtracking on rejection.
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
func linearize(ops []*Op, init state, budget int) (searchOutcome, []string) {
	sorted := append([]*Op(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Invoke != sorted[j].Invoke {
			return sorted[i].Invoke < sorted[j].Invoke
		}
		return sorted[i].ID < sorted[j].ID
	})
	n := len(sorted)
	// suffixMinRet[i] = min Return over sorted[i:].
	suffixMinRet := make([]int64, n+1)
	suffixMinRet[n] = int64(^uint64(0) >> 1)
	for i := n - 1; i >= 0; i-- {
		suffixMinRet[i] = suffixMinRet[i+1]
		if r := int64(sorted[i].Return); r < suffixMinRet[i] {
			suffixMinRet[i] = r
		}
	}
	s := &search{
		ops:       sorted,
		suffixMin: suffixMinRet,
		visited:   make(map[string]bool),
		budget:    budget,
		bestDepth: -1,
	}
	out := s.dfs(init, nil, 0, 0)
	if out == searchOK || out == searchBudget {
		return out, nil
	}
	stuck := s.bestStuck
	if len(stuck) > 3 {
		stuck = stuck[:3]
	}
	if len(stuck) == 0 {
		stuck = []string{"empty candidate set (ops overlap inconsistently)"}
	}
	return searchFail, stuck
}

type search struct {
	ops       []*Op
	suffixMin []int64
	visited   map[string]bool
	key       []byte // the memo key buffer, reused by every node
	nodes     int
	budget    int
	bestDepth int
	bestStuck []string
}

// dfs linearizes the remaining ops — skipped (sorted indices < lo) plus the
// suffix ops[lo:] — from state st. depth counts committed ops.
func (s *search) dfs(st state, skipped []int, lo, depth int) searchOutcome {
	n := len(s.ops)
	if len(skipped) == 0 && lo >= n {
		return searchOK
	}
	s.nodes++
	if s.nodes > s.budget {
		return searchBudget
	}
	s.key = s.appendMemoKey(s.key[:0], st, skipped, lo)
	if s.visited[string(s.key)] {
		return searchFail
	}
	s.visited[string(s.key)] = true

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
			s.noteStuck(depth, fmt.Sprintf("%s: %s", s.ops[i], reason))
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
			s.noteStuck(depth, fmt.Sprintf("%s: %s", s.ops[i], reason))
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
func (s *search) appendMemoKey(b []byte, st state, skipped []int, lo int) []byte {
	b = st.appendKey(b)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(lo), 10)
	for _, i := range skipped {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(i), 10)
	}
	return b
}

// noteStuck records rejection reasons at the deepest prefix reached, which
// is where the genuinely unplaceable op lives.
func (s *search) noteStuck(depth int, reason string) {
	if depth > s.bestDepth {
		s.bestDepth = depth
		s.bestStuck = s.bestStuck[:0]
	}
	if depth == s.bestDepth {
		for _, r := range s.bestStuck {
			if r == reason {
				return
			}
		}
		s.bestStuck = append(s.bestStuck, reason)
	}
}
