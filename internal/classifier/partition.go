package classifier

// This file implements Algorithm 1 of the paper (PartitionNewRule). The
// record that undoes a cut (Fig. 6) is the agent's (internal/core).
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
//        region (EliminateOverlap, via Match.AppendSubtract);
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
	// Cause lists, in walk order, the IDs of the higher-priority
	// main-table rules the cut used: every winner the walk yields, except
	// one under an earlier cause whose Dst contains its Dst and whose Src
	// contains the original's Src — that cause already took the winner's
	// whole overlap with the rule. Deleting a cause requires re-evaluating
	// this partition (Fig. 6); deleting a winner left out does not, while
	// the cause that shadows it stays.
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
	return pt.Partition(newRule, main.OverlapCandidates(newRule.Match, newRule.Priority), wins, nextID, true, 0)
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
	// passes counts the subtract passes of the current call, the work the
	// walk's Skip saves.
	passes int
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
// subtree is touched) or overflows. A winner whose Src contains newRule's
// cuts away every region's overlap with its Dst in full (cutting only
// narrows, so every region's Src lies inside newRule's), so the walk skips
// what lies under it: its node's later entries and its subtree would be pure
// copies, and do not join Cause. The Parts of a cut rule are freshly
// allocated (the caller may keep them). Cause, and the {newRule} Parts of a
// rule nothing cut, alias the Partitioner's memory and are valid until its
// next call.
func (pt *Partitioner) Partition(newRule Rule, main OverlapIter, wins func(existing Rule) bool, nextID func() RuleID, merge bool, maxRegions int) Partition {
	p := Partition{Original: newRule}
	pt.start(newRule.Match)
	cause := pt.cause[:0]
	for r, ok := main.Next(); ok; r, ok = main.Next() {
		if r.ID == newRule.ID || !wins(r) {
			continue // the new rule legitimately wins; shadow-first order is correct
		}
		cause = append(cause, r.ID)
		n := pt.subtract(r.Match)
		if n == 0 {
			break
		}
		if maxRegions > 0 && n > maxRegions {
			p.Overflow = true
			break
		}
		if r.Match.Src.Contains(newRule.Match.Src) {
			main.Skip()
		}
	}
	pt.cause = cause
	p.Cause = cause
	regions := pt.regions
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

// Uncovered reports whether any of region survives being cut against every
// main rule the walk yields that wins — whether Partition, cutting a rule
// whose match contains region, would keep some of it. It is the cheap form of
// the Fig.-6 question "does deleting this main rule give the dependent back
// anything?": the walk is positioned at region (the deleted rule's match
// inside the dependent's), stops at the first rule that leaves nothing, mints
// nothing and allocates nothing once the working set has grown. It skips
// what lies under a winner whose Src contains region's, as Partition does.
func (pt *Partitioner) Uncovered(region Match, main OverlapIter, wins func(existing Rule) bool) bool {
	pt.start(region)
	for r, ok := main.Next(); ok; r, ok = main.Next() {
		if !wins(r) {
			continue
		}
		if pt.subtract(r.Match) == 0 {
			return false
		}
		if r.Match.Src.Contains(region.Src) {
			main.Skip()
		}
	}
	return true
}

// Causes returns the Cause that Partition would record for rule, provided
// the cut leaves some of rule and does not overflow: such a walk never stops
// early, so its causes follow from the walk alone. It keeps no regions, mints
// nothing and allocates nothing once its buffer has grown; the list aliases
// the Partitioner's memory until its next call.
func (pt *Partitioner) Causes(rule Rule, main OverlapIter, wins func(existing Rule) bool) []RuleID {
	cause := pt.cause[:0]
	for r, ok := main.Next(); ok; r, ok = main.Next() {
		if r.ID == rule.ID || !wins(r) {
			continue
		}
		cause = append(cause, r.ID)
		if r.Match.Src.Contains(rule.Match.Src) {
			main.Skip()
		}
	}
	pt.cause = cause
	return cause
}

// start makes m the whole working set.
func (pt *Partitioner) start(m Match) {
	pt.regions = append(pt.regions[:0], m)
	pt.passes = 0
}

// subtract is EliminateOverlap's step: it cuts m out of every region of the
// working set, into the double buffer, and returns how many regions are left.
func (pt *Partitioner) subtract(m Match) int {
	pt.passes++
	spare := pt.spare[:0]
	for _, region := range pt.regions {
		spare = region.AppendSubtract(spare, m)
	}
	pt.regions, pt.spare = spare, pt.regions
	return len(spare)
}
