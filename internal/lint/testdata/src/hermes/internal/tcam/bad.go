// Package tcam is lint-corpus material impersonating the TCAM model's
// packet-lookup hot path; every marked line must be flagged by the
// allocscan analyzer and every unmarked line must not.
package tcam

// Rule stands in for classifier.Rule.
type Rule struct {
	ID       uint64
	Priority int32
}

// Table stands in for tcam.Table: entries plus preallocated scratch the
// legal lookups reuse.
type Table struct {
	entries []Rule
	scratch []Rule
	seen    map[uint64]bool
}

// LookupIndexed allocates a dedup map per packet: flagged.
func (t *Table) LookupIndexed(dst uint32) (Rule, bool) {
	seen := make(map[uint64]bool) // want:allocscan
	for _, r := range t.entries {
		if seen[r.ID] {
			continue
		}
		seen[r.ID] = true
		if uint32(r.ID) == dst {
			return r, true
		}
	}
	return Rule{}, false
}

// lookupCandidates grows a fresh slice per packet and seeds it with a
// slice literal: both flagged.
func (t *Table) lookupCandidates(dst uint32) []Rule {
	out := []Rule{} // want:allocscan
	for _, r := range t.entries {
		if uint32(r.ID)&dst != 0 {
			out = append(out, r) // want:allocscan
		}
	}
	return out
}

// Iter stands in for classifier.OverlapIter.
type Iter struct {
	rules []Rule
	pos   int
}

// Next materializes a map literal per step: flagged.
func (it *Iter) Next() (Rule, bool) {
	weights := map[int32]int{0: 1} // want:allocscan
	for it.pos < len(it.rules) {
		r := it.rules[it.pos]
		it.pos++
		if weights[r.Priority] > 0 {
			return r, true
		}
	}
	return Rule{}, false
}

// LookupClean is a legal hot-path function: it only reuses preallocated
// table state, so nothing here may be flagged.
func (t *Table) LookupClean(dst uint32) (Rule, bool) {
	t.scratch = t.scratch[:0]
	for k := range t.seen {
		delete(t.seen, k)
	}
	var best Rule
	found := false
	for _, r := range t.entries {
		if uint32(r.ID) == dst && (!found || r.Priority > best.Priority) {
			best, found = r, true
		}
	}
	return best, found
}

// Rebuild is a mutator, not a lookup: it may allocate freely and none of
// these lines may be flagged.
func (t *Table) Rebuild(rules []Rule) {
	t.seen = make(map[uint64]bool, len(rules))
	t.entries = append([]Rule{}, rules...)
	t.scratch = make([]Rule, 0, len(rules))
}
