package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/obs"
	"hermes/internal/tcam"
)

// This file is the crash-recovery half of the robustness story: the agent's
// rule records (a.rules) are the *desired* state, the physical
// shadow/main slices are the *actual* state, and Reconcile is the repair
// loop that drives actual back to desired after a fault — a switch
// power-cycle that wiped or truncated the TCAM, a migration cut off at one
// of the four Fig.-7 steps, or an update engine that acked writes it never
// applied. Repairs preserve the §4.2 invariants (shadow fragments disjoint
// from every beating main rule, tie order by logical sequence), so after a
// Reconcile the carved pipeline answers exactly like the reference
// monolithic table again.

// ReconcileReport summarizes what one Reconcile pass found and repaired.
type ReconcileReport struct {
	// AbortedMigration reports that an in-flight background copy was
	// discarded (its snapshot could not survive the repair).
	AbortedMigration bool
	// StaleDeleted counts physical entries removed because no live rule
	// wanted them (orphans) or their content drifted from the desired rule.
	StaleDeleted int
	// MainReinstalled counts desired main-table entries that were missing
	// (e.g. wiped by a crash) and were written back.
	MainReinstalled int
	// ShadowRepaired counts shadow-resident rules whose physical
	// realization had to be rebuilt (missing fragments, or a partition that
	// no longer matches the current main table).
	ShadowRepaired int
	// Kept counts shadow-resident rules whose physical state already
	// matched the desired partition.
	Kept int
	// Unrepaired counts rules that could not be reinstalled (table
	// capacity); they remain tracked but uninstalled, exactly like a
	// table-full insertion on a real switch.
	Unrepaired int
}

// Clean reports that the pass found nothing to repair.
func (r ReconcileReport) Clean() bool {
	return !r.AbortedMigration && r.StaleDeleted == 0 && r.MainReinstalled == 0 &&
		r.ShadowRepaired == 0 && r.Unrepaired == 0
}

func (r ReconcileReport) String() string {
	return fmt.Sprintf("reconcile{aborted=%v stale=%d main=%d shadow=%d kept=%d unrepaired=%d}",
		r.AbortedMigration, r.StaleDeleted, r.MainReinstalled, r.ShadowRepaired, r.Kept, r.Unrepaired)
}

// NeedsReconcile reports whether a fault has marked the agent's view as
// possibly diverged from the physical tables.
func (a *Agent) NeedsReconcile() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.needsReconcile
}

// CrashRestart models the managed switch power-cycling under the agent:
// every physical entry vanishes and the control-plane queues empty, while
// the agent's desired state (rules, partitions, sequence numbers) survives
// in software. Call Reconcile afterwards to reinstall.
func (a *Agent) CrashRestart(now time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.migr != nil {
		// The background copy dies with the switch.
		a.migr = nil
		a.metrics.MigrationAborts++
	}
	a.sw.CrashRestart()
	a.markDivergentLocked()
	a.metrics.SwitchRestarts++
	a.o.event(now, obs.EvCrash, 0, 0, 0, 0)
}

// MarkDivergent flags the agent as needing reconciliation without saying
// why — used when an external fault (table truncation, dropped TCAM ops)
// may have desynchronized the physical tables.
func (a *Agent) MarkDivergent() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.markDivergentLocked()
}

// markDivergentLocked is the one place a fault is recorded: the agent needs
// a Reconcile, and — in cached mode — the cover-hygiene deltas collected so
// far describe tables that may no longer exist, so the first rebalance after
// the repair sweeps every rule.
func (a *Agent) markDivergentLocked() {
	a.needsReconcile = true
	a.hygieneAll = true
}

// TruncateShadow models a crash during a bulk shadow-table write: only the
// first n physical entries survive. The agent is marked divergent.
func (a *Agent) TruncateShadow(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.shadow.Truncate(n)
	a.markDivergentLocked()
}

// desiredEntries returns, keyed by physical entry ID, the entries the table
// that place names should hold — the parts of every rule placed there — each
// with the seq of the rule it realizes, which ranks it.
func (a *Agent) desiredEntries(place placement) map[classifier.RuleID]desiredEntry {
	out := make(map[classifier.RuleID]desiredEntry)
	for _, st := range a.rules {
		if st.place != place {
			continue
		}
		for _, p := range st.parts {
			out[p.ID] = desiredEntry{p, st.seq}
		}
	}
	return out
}

// desiredEntry is one entry a table should hold and its rank.
type desiredEntry struct {
	entry classifier.Rule
	seq   uint64
}

// Reconcile diffs the agent's desired rule state against the physical
// shadow/main tables and repairs the difference: stale or orphaned entries
// are deleted, missing main entries are written back, and every
// shadow-resident rule is re-validated against the *current* main table —
// its fragments must be exactly the partition Algorithm 1 yields now, or
// the rule is freshly re-partitioned and reinstalled. The pass is
// deterministic (rules are visited in ID order) and leaves the agent with
// NeedsReconcile() == false.
func (a *Agent) Reconcile(now time.Duration) ReconcileReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	var rep ReconcileReport
	if a.migr != nil {
		// An in-flight background copy references rules whose physical
		// state this pass is about to rewrite; drop it and let the next
		// Tick restart migration from a consistent snapshot.
		a.migr = nil
		a.metrics.MigrationAborts++
		rep.AbortedMigration = true
	}

	// Phase 1: main table. Delete entries nobody wants (or whose content
	// drifted), then write back the missing ones in ID order.
	desiredMain := a.desiredEntries(placeMain)
	for _, e := range a.main.Rules() {
		if want, ok := desiredMain[e.ID]; ok && e == want.entry {
			continue
		}
		if cost, present := a.main.Delete(e.ID); present {
			a.sw.Submit(now, cost)
			rep.StaleDeleted++
		}
	}
	mainIDs := make([]classifier.RuleID, 0, len(desiredMain))
	for pid := range desiredMain {
		mainIDs = append(mainIDs, pid)
	}
	slices.Sort(mainIDs)
	for _, pid := range mainIDs {
		if a.main.Contains(pid) {
			continue
		}
		want := desiredMain[pid]
		cost, err := a.main.InsertRanked(want.entry, want.seq)
		if err != nil {
			rep.Unrepaired++
			continue
		}
		a.sw.Submit(now, cost)
		rep.MainReinstalled++
	}

	// Phase 2: shadow table. Delete stale/orphaned physical entries, then
	// re-validate each shadow-resident rule against the main table as phase 1
	// left it (the cuts walk the table's own index).
	desiredShadow := a.desiredEntries(placeShadow)
	for _, e := range a.shadow.Rules() {
		if want, ok := desiredShadow[e.ID]; ok && e == want.entry {
			continue
		}
		if cost, present := a.shadow.Delete(e.ID); present {
			a.sw.SubmitGuaranteed(now, cost)
			rep.StaleDeleted++
		}
	}
	for _, id := range slices.Clone(a.shadowIDs) {
		st := a.rules[id]
		if a.shadowRuleIntact(st) {
			rep.Kept++
			continue
		}
		a.reinstallShadowRule(now, st)
		if a.ruleInstalled(st) {
			rep.ShadowRepaired++
		} else {
			rep.Unrepaired++
		}
	}

	a.needsReconcile = false
	a.hygieneAll = true // whatever was repaired, re-derive every shield once
	a.metrics.Reconciles++
	a.metrics.ReconcileStale += rep.StaleDeleted
	a.metrics.ReconcileRepaired += rep.MainReinstalled + rep.ShadowRepaired
	repaired := rep.MainReinstalled + rep.ShadowRepaired
	a.o.event(now, obs.EvReconcile, 0, 0, uint64(rep.StaleDeleted), uint64(repaired))
	if !rep.Clean() {
		// Flight recorder: freeze the events that led to the divergence.
		a.o.capture(now, "reconcile repair: %v", rep)
	}
	return rep
}

// shadowRuleIntact reports whether a shadow-resident rule's physical state
// is exactly what Algorithm 1 would install against the *current* main
// table: every fragment present with the right content, and the fragment
// match set equal to a fresh partition of the original. A beating main rule
// that vanished (under-coverage) or appeared (overlap) both fail the check.
// An intact rule's recorded causes are refreshed from the fresh cut.
func (a *Agent) shadowRuleIntact(st *ruleState) bool {
	part := a.partition(st.original, st.seq)
	if part.Overflow || len(part.Parts) > a.cfg.MaxPartitions {
		// The rule can no longer live in the shadow table at all.
		return false
	}
	if part.Redundant() {
		return len(st.parts) == 0
	}
	if len(st.parts) != len(part.Parts) {
		return false
	}
	// Compare fragment match multisets; priority and action are fixed by
	// the original, so matches identify fragments.
	want := make(map[classifier.Match]int, len(part.Parts))
	for _, p := range part.Parts {
		want[p.Match]++
	}
	for _, frag := range st.parts {
		physical, ok := a.shadow.Get(frag.ID)
		if !ok || physical != frag {
			return false
		}
		if want[frag.Match] == 0 {
			return false
		}
		want[frag.Match]--
	}
	// Intact, but a main entry written back since the cut may lie in the
	// region already cut away: the fresh cut's causes are the ones the Fig.-6
	// un-partition must find recorded.
	a.cuts.setCause(st, part.Cause)
	return true
}

// ruleInstalled reports whether a rule's desired physical entries are all
// present (an empty fragment set — a redundant rule — counts as installed).
func (a *Agent) ruleInstalled(st *ruleState) bool {
	tbl := a.shadow
	if st.place == placeMain {
		tbl = a.main
	}
	for _, p := range st.parts {
		if !tbl.Contains(p.ID) {
			return false
		}
	}
	return true
}

// CheckConsistency verifies byte-equivalence between the agent's desired
// view and the physical tables: every desired entry installed with
// identical content and no extra physical entries in either slice. It
// returns nil when the views agree. Chaos harnesses call it after
// Reconcile; any error there is a recovery bug. The tables are all there is
// to compare: the Gate Keeper cuts against the main table's own index, so no
// agent-side copy of the main table is left to drift.
func (a *Agent) CheckConsistency() error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, t := range []struct {
		name  string
		place placement
		tbl   *tcam.Table
	}{{"main", placeMain, a.main}, {"shadow", placeShadow, a.shadow}} {
		desired := a.desiredEntries(t.place)
		for _, e := range t.tbl.Rules() {
			want, ok := desired[e.ID]
			if !ok {
				return fmt.Errorf("core: stale %s entry %d (%v)", t.name, e.ID, e.Match)
			}
			if e != want.entry {
				return fmt.Errorf("core: %s entry %d diverged: have %v want %v", t.name, e.ID, e, want.entry)
			}
			delete(desired, e.ID)
		}
		for pid := range desired {
			return fmt.Errorf("core: desired %s entry %d missing from hardware", t.name, pid)
		}
	}
	return nil
}

// CheckPartitions verifies every shadow-resident rule's cut record against a
// fresh Algorithm-1 cut on the main table as it is now: an uncut rule has
// nothing beating it, a redundant one is still covered, and a rule with
// fragments covers exactly the region the fresh cut keeps and records
// exactly the fresh cut's causes. The last is what lets a main-table delete
// leave a dependent's fragments in place (DESIGN.md §17). It also checks the
// cut index against every record (checkCutIndex). Like CheckConsistency it
// holds whenever no fault awaits Reconcile; it returns the first violation
// found.
func (a *Agent) CheckPartitions() error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if err := a.checkCutIndex(); err != nil {
		return err
	}
	var pt classifier.Partitioner
	mint := func() classifier.RuleID { return 0 }
	for _, id := range a.shadowIDs {
		st := a.rules[id]
		wins := func(existing classifier.Rule) bool {
			return a.beats(existing, st.original.Priority, st.seq)
		}
		fresh := pt.Partition(st.original, a.main.OverlapCandidates(st.original.Match, math.MinInt32), wins, mint,
			!a.cfg.DisableMergeOptimization, 0)
		switch {
		case st.cut == nil:
			if fresh.WasCut() {
				return fmt.Errorf("core: shadow rule %d is installed uncut, but main rules %v beat it", id, fresh.Cause)
			}
		case len(st.parts) == 0:
			if !fresh.Redundant() {
				return fmt.Errorf("core: shadow rule %d is recorded redundant, but a fresh cut keeps %v", id, fresh.Parts)
			}
		case fresh.Redundant():
			return fmt.Errorf("core: shadow rule %d keeps %v, but a fresh cut leaves nothing", id, st.parts)
		default:
			got, want := slices.Clone(st.cut.cause), slices.Clone(fresh.Cause)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				return fmt.Errorf("core: shadow rule %d records causes %v, a fresh cut finds %v", id, got, want)
			}
			if !coveredBy(&pt, st.parts, fresh.Parts) || !coveredBy(&pt, fresh.Parts, st.parts) {
				return fmt.Errorf("core: shadow rule %d keeps %v, a fresh cut keeps %v", id, st.parts, fresh.Parts)
			}
		}
	}
	return nil
}

// checkCutIndex verifies both indexes against the rule records: every
// fragment maps back to its rule and nothing else is mapped; every cause of a
// cut rule lists it among its dependents, and no dependents list names a
// rule that is not live, not cut or not caused by that entry.
func (a *Agent) checkCutIndex() error {
	frags, links := 0, 0
	for id, st := range a.rules {
		for _, p := range st.parts {
			if p.ID == id {
				continue
			}
			frags++
			if a.cuts.byPart[p.ID] != st {
				return fmt.Errorf("core: fragment %d of rule %d is not indexed to it", p.ID, id)
			}
		}
		if st.cut == nil {
			continue
		}
		links += len(st.cut.cause)
		for _, c := range st.cut.cause {
			if !slices.Contains(a.cuts.byCause[c], st) {
				return fmt.Errorf("core: rule %d records cause %d, whose dependents omit it", id, c)
			}
		}
	}
	if len(a.cuts.byPart) != frags {
		return fmt.Errorf("core: %d fragments indexed, the rules hold %d", len(a.cuts.byPart), frags)
	}
	for c, deps := range a.cuts.byCause {
		links -= len(deps)
		for _, st := range deps {
			if a.rules[st.original.ID] != st || st.cut == nil || !slices.Contains(st.cut.cause, c) {
				return fmt.Errorf("core: dependents of %d name rule %d, which is not live or not cut by it", c, st.original.ID)
			}
		}
	}
	if links != 0 {
		return fmt.Errorf("core: dependents lists and cause lists disagree by %d links", links)
	}
	return nil
}

// coveredBy reports whether every packet some rule of x matches is matched by
// a rule of y.
func coveredBy(pt *classifier.Partitioner, x, y []classifier.Rule) bool {
	var t classifier.Trie
	for _, r := range y {
		t.Insert(r)
	}
	all := func(classifier.Rule) bool { return true }
	for _, r := range x {
		if pt.Uncovered(r.Match, t.OverlapCandidates(r.Match, math.MinInt32), all) {
			return false
		}
	}
	return true
}
