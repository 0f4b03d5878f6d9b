package core

import (
	"slices"

	"hermes/internal/classifier"
)

// This file holds the agent's half of Algorithm 1: the record that lets a
// deletion un-partition (Fig. 6). The record itself lives in each rule's
// ruleState (parts, cut); cutIndex holds the two lookups into it, from a
// fragment to its rule and from a main rule to the rules that record it as a
// cause. A main rule that beats a rule but lies under a cause whose src
// contains the rule's is not recorded: its delete gives the rule nothing.

// cutRecord is what a cut rule records beyond its parts: the main rules the
// cut used (classifier.Partition.Cause), not every one that beats it.
type cutRecord struct {
	cause []classifier.RuleID
}

// causedBy reports whether main entry e is among the record's causes.
func (c *cutRecord) causedBy(e classifier.Rule) bool { return slices.Contains(c.cause, e.ID) }

// cutIndex indexes the rules' cut records. It holds *ruleState, so a state
// leaves it (forget) before it is recycled (dropRuleState).
type cutIndex struct {
	byPart  map[classifier.RuleID]*ruleState   // fragment ID -> the rule it realizes
	byCause map[classifier.RuleID][]*ruleState // main rule ID -> the rules recording it as a cause, unordered

	gone, added []classifier.RuleID // relink's cause-diff scratch
	freeDeps    [][]*ruleState      // emptied byCause lists, kept for the next new cause
}

// maxFreeDeps bounds how many emptied dependents lists are kept, and
// maxFreeDepsCap how long a kept one may be: a kept list goes to whichever
// cause is linked next, most of which cut a few rules, so a long one would
// mostly keep memory.
const (
	maxFreeDeps    = 1024
	maxFreeDepsCap = 16
)

func newCutIndex() cutIndex {
	return cutIndex{
		byPart:  make(map[classifier.RuleID]*ruleState),
		byCause: make(map[classifier.RuleID][]*ruleState),
	}
}

// record makes p the rule's current cut: p.Parts become st.parts, and a rule
// p cut gets a record. A partition with no cause did not cut its rule and
// leaves no record (nothing to undo); its parts are the whole rule. The rule
// keeps the Parts of a cut and copies its Cause: the winners the cut used,
// which is all a later delete must check (Agent.unpartition).
//
// Re-recording costs what changed: old and new cause list are both in the
// trie's overlap order, so the common head and tail are skipped and only the
// causes in between are unlinked or linked. That stretch is diffed by sorted
// ID, so the result does not rely on the order (a main rule that Reconcile
// writes back returns at the end of its trie node).
func (x *cutIndex) record(st *ruleState, p classifier.Partition) {
	if !p.WasCut() {
		x.forget(st)
		st.parts = st.whole()
		return
	}
	if st.cut == nil {
		st.cut = &cutRecord{}
	} else {
		x.unindexParts(st)
	}
	for _, part := range p.Parts {
		x.byPart[part.ID] = st
	}
	x.relink(st, p.Cause)
	st.parts = p.Parts
}

// forget erases a rule's cut record and unindexes its fragments, after they
// left the tables or the original replaced them. The caller sets st.parts.
func (x *cutIndex) forget(st *ruleState) {
	if st.cut == nil {
		return
	}
	for _, c := range st.cut.cause {
		x.unlink(c, st)
	}
	x.unindexParts(st)
	st.cut = nil
}

// unindexParts drops a cut rule's fragments from byPart.
func (x *cutIndex) unindexParts(st *ruleState) {
	for _, part := range st.parts {
		delete(x.byPart, part.ID)
	}
}

// relink makes cause the rule's cause list, linking and unlinking only the
// main rules that joined or left it.
func (x *cutIndex) relink(st *ruleState, cause []classifier.RuleID) {
	was, now := st.cut.cause, cause
	if len(was) == 0 {
		// A first cut: every cause joins, with nothing to diff against.
		for _, c := range now {
			x.link(c, st)
		}
		st.cut.cause = append(st.cut.cause, cause...)
		return
	}
	for len(was) > 0 && len(now) > 0 && was[0] == now[0] {
		was, now = was[1:], now[1:]
	}
	for len(was) > 0 && len(now) > 0 && was[len(was)-1] == now[len(now)-1] {
		was, now = was[:len(was)-1], now[:len(now)-1]
	}
	x.gone = append(x.gone[:0], was...)
	x.added = append(x.added[:0], now...)
	slices.Sort(x.gone)
	slices.Sort(x.added)
	gone, added := x.gone, x.added
	for len(gone) > 0 || len(added) > 0 {
		switch {
		case len(added) == 0 || (len(gone) > 0 && gone[0] < added[0]):
			x.unlink(gone[0], st)
			gone = gone[1:]
		case len(gone) == 0 || added[0] < gone[0]:
			x.link(added[0], st)
			added = added[1:]
		default: // still a cause, only elsewhere in the list
			gone, added = gone[1:], added[1:]
		}
	}
	st.cut.cause = append(st.cut.cause[:0], cause...)
}

// setCause replaces the cause list of a cut rule whose parts did not change:
// Reconcile found them intact against a main table that may have gained
// rules since the cut, a delete left them in place (Agent.unpartition), or
// rules migrated in only where they were already cut away (keepsClearOf).
func (x *cutIndex) setCause(st *ruleState, cause []classifier.RuleID) {
	if st.cut != nil {
		x.relink(st, cause)
	}
}

// link adds st to the rules main rule c cut.
func (x *cutIndex) link(c classifier.RuleID, st *ruleState) {
	deps, ok := x.byCause[c]
	if n := len(x.freeDeps); !ok && n > 0 {
		deps, x.freeDeps = x.freeDeps[n-1], x.freeDeps[:n-1]
	}
	x.byCause[c] = append(deps, st)
}

// unlink removes st from the rules main rule c cut.
func (x *cutIndex) unlink(c classifier.RuleID, st *ruleState) {
	deps := x.byCause[c]
	i := slices.Index(deps, st)
	if i < 0 {
		return
	}
	last := len(deps) - 1
	deps[i], deps[last] = deps[last], nil
	deps = deps[:last]
	if last > 0 {
		x.byCause[c] = deps
		return
	}
	delete(x.byCause, c)
	if len(x.freeDeps) < maxFreeDeps && cap(deps) <= maxFreeDepsCap {
		x.freeDeps = append(x.freeDeps, deps)
	}
}

// dependentsOf returns the rules the given main-table entries cut, each once,
// highest precedence first (cmpPrecedence). Deleting the entries
// un-partitions each of them (Fig. 6) in this order, which decides the
// fragment IDs they are minted; commit, not this order, orders the writes
// (DESIGN.md §17). The list is a copy: un-partitioning relinks the index.
func (x *cutIndex) dependentsOf(entries []classifier.Rule) []*ruleState {
	var deps []*ruleState
	for _, e := range entries {
		deps = append(deps, x.byCause[e.ID]...)
	}
	slices.SortFunc(deps, cmpPrecedence)
	return slices.Compact(deps)
}
