package classifier

import (
	"cmp"
	"slices"
)

// This file implements Algorithm 1 of the paper (PartitionNewRule) and the
// bookkeeping needed to undo it.
//
// Hermes inserts new rules into the shadow table, which is looked up before
// the main table. A new rule that overlaps a *higher-priority* rule already
// in the main table would therefore shadow it incorrectly (Fig. 4b). To
// preserve monolithic-table semantics, the region of the new rule that
// collides with higher-priority main-table rules is cut away:
//
//  (i)   detect overlaps between the new rule and main-table rules with
//        higher priority (DetectOverlap, via the Trie);
//  (ii)  eliminate each overlap by recursively cutting the new rule's match
//        region (EliminateOverlap, via Match.Subtract);
//  (iii) merge the surviving fragments into a minimal rule set (Merge, via
//        MergeMatches).
//
// The three overlap cases of Fig. 5 fall out naturally: (a) a containing
// higher-priority rule leaves nothing, so the new rule is redundant and is
// not inserted; (b)/(c) partial overlaps leave fragments that are installed
// in the shadow table in place of the original rule.

// Partition is the result of PartitionNewRule for one new rule.
type Partition struct {
	// Original is the rule as requested by the controller.
	Original Rule
	// Parts are the rules actually installed in the shadow table. Each
	// carries the original action and priority but a cut-down match. When no
	// main-table rule overlapped, Parts is exactly {Original}. When a
	// higher-priority main-table rule subsumed the original (Fig. 5a), Parts
	// is empty and the rule is redundant.
	Parts []Rule
	// Cause lists the IDs of the higher-priority main-table rules whose
	// overlap forced the cut. Deleting any of them requires re-evaluating
	// this partition (Fig. 6).
	Cause []RuleID
	// Overflow reports that partitioning was abandoned because the
	// fragment count exceeded the caller's cap — the cheap detection
	// behind the paper's footnote-5 Gate Keeper escape hatch (rules like
	// a low-priority 0.0.0.0/0 would shatter against the whole table).
	Overflow bool
}

// Redundant reports whether the original rule was wholly subsumed and
// nothing needs to be installed.
func (p *Partition) Redundant() bool { return len(p.Parts) == 0 }

// WasCut reports whether the rule had to be fragmented (or dropped), i.e.
// whether Parts differs from {Original}.
func (p *Partition) WasCut() bool {
	return len(p.Cause) > 0
}

// PartitionNewRule implements Algorithm 1. main indexes the current
// main-table rules; nextID mints IDs for the generated partition rules (the
// original rule's ID is reused when no cut is needed).
//
// Rules in the main table with priority >= the new rule's priority cut the
// new rule. Equal priority is treated as "existing rule wins" because in a
// monolithic TCAM the earlier-inserted rule sits higher and would match
// first. Callers that know the true insertion order (the Hermes agent) keep
// a Partitioner and pass it a seq-aware wins predicate instead.
func PartitionNewRule(newRule Rule, main *Trie, nextID func() RuleID) Partition {
	wins := func(existing Rule) bool { return existing.Priority >= newRule.Priority }
	var pt Partitioner
	return pt.Partition(newRule, main.OverlapCandidates(newRule.Match), wins, nextID, true, 0)
}

// Partitioner runs Algorithm 1 on working memory it keeps between calls, so
// a cut allocates for the parts it produces and not for the rules it was cut
// against, and a rule that nothing cuts allocates nothing. The zero value is
// ready to use; it is not safe for concurrent use (the agent keeps one under
// its write lock).
type Partitioner struct {
	regions, spare []Match // EliminateOverlap's working set and its double buffer
	cause          []RuleID
	whole          []Rule // the one-element Parts of an uncut rule
	merge          mergeScratch
}

// Partition is the generalized Algorithm 1: main walks the main-table rules
// overlapping newRule.Match (whose index it walks is the caller's business),
// wins reports whether an existing main-table rule would beat newRule in a
// monolithic table (the caller encodes priority and insertion-order
// tie-breaking). merge controls the line-7 optimal merge; ablations disable
// it. maxRegions, when positive, abandons partitioning (setting Overflow) as
// soon as the working fragment set exceeds it, so the Gate Keeper can divert
// pathological rules to the main table without paying the full cutting cost
// first.
//
// Main-table rules are cut against in OverlapIter order and the walk stops
// at the rule that leaves nothing (a containing ancestor ends it before the
// subtree is touched) or overflows. The Parts of a cut rule are freshly
// allocated (PartitionMap.Record keeps them). Cause, and the {newRule} Parts
// of a rule nothing cut, alias the Partitioner's memory and are valid until
// its next call (Record copies the one and has no use for the other).
func (pt *Partitioner) Partition(newRule Rule, main OverlapIter, wins func(existing Rule) bool, nextID func() RuleID, merge bool, maxRegions int) Partition {
	p := Partition{Original: newRule}
	regions, spare := append(pt.regions[:0], newRule.Match), pt.spare
	cause := pt.cause[:0]
	for r, ok := main.Next(); ok; r, ok = main.Next() {
		if r.ID == newRule.ID || !wins(r) {
			continue // the new rule legitimately wins; shadow-first order is correct
		}
		cause = append(cause, r.ID)
		spare = spare[:0]
		for _, region := range regions {
			spare = region.AppendSubtract(spare, r.Match)
		}
		regions, spare = spare, regions
		if len(regions) == 0 {
			break
		}
		if maxRegions > 0 && len(regions) > maxRegions {
			p.Overflow = true
			break
		}
	}
	pt.regions, pt.spare, pt.cause = regions, spare, cause
	p.Cause = cause
	if p.Overflow || len(regions) == 0 {
		return p // abandoned, or redundant
	}
	if len(cause) == 0 {
		// Fast path: untouched.
		pt.whole = append(pt.whole[:0], newRule)
		p.Parts = pt.whole
		return p
	}
	if merge {
		regions = pt.merge.merge(regions)
	}
	p.Parts = make([]Rule, len(regions))
	for i, m := range regions {
		p.Parts[i] = Rule{ID: nextID(), Match: m, Priority: newRule.Priority, Action: newRule.Action}
	}
	return p
}

// PartitionMap tracks, for every original rule that was cut, the partition
// that replaced it — the "mapping set M" of Algorithm 1. It answers the two
// questions rule deletion must ask (§4.1): "was this shadow rule
// partitioned?" and "which partitions depended on this main-table rule?".
type PartitionMap struct {
	byOriginal map[RuleID]*partRecord   // original rule ID -> its partition
	byCause    map[RuleID][]*partRecord // main rule ID -> the partitions it cut, unordered
	byPart     map[RuleID]RuleID        // partition rule ID -> original rule ID
	clock      uint64                   // stamps records in Record order

	gone, added []RuleID        // Record's cause-diff scratch
	freeDeps    [][]*partRecord // emptied byCause lists, kept for the next new cause
}

// partRecord is one recorded partition. Its Cause is the map's own copy.
type partRecord struct {
	Partition
	stamp uint64 // clock value of the most recent Record
}

// maxFreeDeps bounds the recycled dependents lists.
const maxFreeDeps = 1024

// NewPartitionMap returns an empty map.
func NewPartitionMap() *PartitionMap {
	return &PartitionMap{
		byOriginal: make(map[RuleID]*partRecord),
		byCause:    make(map[RuleID][]*partRecord),
		byPart:     make(map[RuleID]RuleID),
	}
}

// Record stores p as the current partition of its original rule, replacing
// the one recorded before, if any. A partition with no cause did not cut
// its rule and leaves no record (nothing to undo). The map keeps p.Parts and
// copies p.Cause.
//
// Re-recording costs what changed: old and new cause list are both in the
// trie's overlap order, so the common head and tail are skipped and only the
// causes in between are unlinked or linked. That stretch is diffed by sorted
// ID, so the result does not rely on the order (a main rule that Reconcile
// writes back returns at the end of its trie node).
func (m *PartitionMap) Record(p Partition) {
	id := p.Original.ID
	if !p.WasCut() {
		m.Remove(id)
		return
	}
	rec := m.byOriginal[id]
	if rec == nil {
		rec = &partRecord{}
		m.byOriginal[id] = rec
	}
	m.clock++
	rec.stamp = m.clock

	for _, part := range rec.Parts {
		delete(m.byPart, part.ID)
	}
	for _, part := range p.Parts {
		m.byPart[part.ID] = id
	}

	was, now := rec.Cause, p.Cause
	for len(was) > 0 && len(now) > 0 && was[0] == now[0] {
		was, now = was[1:], now[1:]
	}
	for len(was) > 0 && len(now) > 0 && was[len(was)-1] == now[len(now)-1] {
		was, now = was[:len(was)-1], now[:len(now)-1]
	}
	m.gone = append(m.gone[:0], was...)
	m.added = append(m.added[:0], now...)
	slices.Sort(m.gone)
	slices.Sort(m.added)
	gone, added := m.gone, m.added
	for len(gone) > 0 || len(added) > 0 {
		switch {
		case len(added) == 0 || (len(gone) > 0 && gone[0] < added[0]):
			m.unlink(gone[0], rec)
			gone = gone[1:]
		case len(gone) == 0 || added[0] < gone[0]:
			m.link(added[0], rec)
			added = added[1:]
		default: // still a cause, only elsewhere in the list
			gone, added = gone[1:], added[1:]
		}
	}

	cause := append(rec.Cause[:0], p.Cause...)
	rec.Partition = p
	rec.Cause = cause
}

// link adds rec to the partitions main rule c cut.
func (m *PartitionMap) link(c RuleID, rec *partRecord) {
	deps, ok := m.byCause[c]
	if n := len(m.freeDeps); !ok && n > 0 {
		deps, m.freeDeps = m.freeDeps[n-1], m.freeDeps[:n-1]
	}
	m.byCause[c] = append(deps, rec)
}

// unlink removes rec from the partitions main rule c cut.
func (m *PartitionMap) unlink(c RuleID, rec *partRecord) {
	deps := m.byCause[c]
	i := slices.Index(deps, rec)
	if i < 0 {
		return
	}
	last := len(deps) - 1
	deps[i], deps[last] = deps[last], nil
	deps = deps[:last]
	if last > 0 {
		m.byCause[c] = deps
		return
	}
	delete(m.byCause, c)
	if len(m.freeDeps) < maxFreeDeps {
		m.freeDeps = append(m.freeDeps, deps)
	}
}

// Lookup returns the partition recorded for an original rule ID. The
// pointer is valid until the rule is recorded again or removed.
func (m *PartitionMap) Lookup(original RuleID) (*Partition, bool) {
	rec, ok := m.byOriginal[original]
	if !ok {
		return nil, false
	}
	return &rec.Partition, true
}

// OriginalOf maps a partition-rule ID back to the original rule ID. The
// second result is false when id is not a partition rule.
func (m *PartitionMap) OriginalOf(id RuleID) (RuleID, bool) {
	o, ok := m.byPart[id]
	return o, ok
}

// DependentsOf returns the original-rule IDs whose partitions were caused by
// the given main-table rule, in the order of their most recent Record.
// Deleting that main-table rule un-partitions each of them (Fig. 6) in this
// order, which decides who is minted which fragment IDs and where the
// fragments land in the TCAM.
func (m *PartitionMap) DependentsOf(mainRule RuleID) []RuleID {
	deps := m.byCause[mainRule]
	if len(deps) == 0 {
		return nil
	}
	slices.SortFunc(deps, func(a, b *partRecord) int { return cmp.Compare(a.stamp, b.stamp) })
	out := make([]RuleID, len(deps))
	for i, rec := range deps {
		out[i] = rec.Original.ID
	}
	return out
}

// Remove erases the record for an original rule (after its fragments have
// been deleted or the original restored).
func (m *PartitionMap) Remove(original RuleID) {
	rec, ok := m.byOriginal[original]
	if !ok {
		return
	}
	delete(m.byOriginal, original)
	for _, c := range rec.Cause {
		m.unlink(c, rec)
	}
	for _, part := range rec.Parts {
		delete(m.byPart, part.ID)
	}
}

// Len reports the number of recorded partitions.
func (m *PartitionMap) Len() int { return len(m.byOriginal) }
