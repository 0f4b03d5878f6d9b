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

	// Phase 1: main table. Entries no main rule holds go, then every main
	// rule's entries are written back as its record says, in ID order.
	rep.StaleDeleted += a.sweep(now, a.main, a.sw.Submit)
	var mainIDs []classifier.RuleID
	for id, st := range a.rules {
		if st.place == placeMain {
			mainIDs = append(mainIDs, id)
		}
	}
	slices.Sort(mainIDs)
	for _, id := range mainIDs {
		st := a.rules[id]
		w := a.write(now, a.main, a.sw.Submit, st, st.parts, st.parts)
		rep.StaleDeleted += w.del
		rep.MainReinstalled += w.ins
		rep.Unrepaired += w.failed
	}

	// Phase 2: shadow table. Orphans go, then every shadow-resident rule is
	// re-cut against the main table as phase 1 left it (the cuts walk the
	// table's own index). An intact rule is one whose re-cut writes nothing.
	rep.StaleDeleted += a.sweep(now, a.shadow, a.sw.SubmitGuaranteed)
	for _, id := range slices.Clone(a.shadowIDs) {
		st := a.rules[id]
		switch {
		case !a.reinstallShadowRule(now, st, true):
			rep.Kept++
		case a.holds(&a.plan, st):
			rep.ShadowRepaired++
		default:
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

// sweep deletes, in table order and charged to lane via, the entries of tbl
// that no rule placed there holds, and returns how many it deleted.
func (a *Agent) sweep(now time.Duration, tbl *tcam.Table, via lane) int {
	return a.write(now, tbl, via, nil, a.orphans(tbl), nil).del
}

// orphans returns the entries of tbl that no rule placed there holds.
func (a *Agent) orphans(tbl *tcam.Table) []classifier.Rule {
	var out []classifier.Rule
	for _, e := range tbl.Rules() {
		st := a.cuts.byPart[e.ID]
		if st == nil {
			st = a.rules[e.ID]
		}
		if st == nil || a.tableOf(st) != tbl || !hasID(st.parts, e.ID) {
			out = append(out, e)
		}
	}
	return out
}

// holds reports whether a rule's table holds its entries exactly as its
// record says: writing them back would change nothing. p is the diff's
// scratch.
func (a *Agent) holds(p *writePlan, st *ruleState) bool {
	diff(p, a.tableOf(st), st.parts, st.parts)
	return p.empty()
}

// CheckConsistency verifies byte-equivalence between the agent's desired
// view and the physical tables — no entry that no rule holds, and every rule
// held exactly as recorded (Reconcile's diff, with nothing written) — and
// returns nil when the views agree. Chaos harnesses call it after Reconcile;
// any error there is a recovery bug. The tables are all there is to compare:
// the Gate Keeper cuts against the main table's own index, so no agent-side
// copy of the main table is left to drift.
func (a *Agent) CheckConsistency() error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, tbl := range []*tcam.Table{a.main, a.shadow} {
		if o := a.orphans(tbl); len(o) > 0 {
			return fmt.Errorf("core: stale %s entry %d (%v)", tbl.Name(), o[0].ID, o[0].Match)
		}
	}
	var p writePlan
	for id, st := range a.rules {
		if !a.holds(&p, st) {
			return fmt.Errorf("core: rule %d: %d entries missing or diverged in %s, %d to delete",
				id, len(p.ins), a.tableOf(st).Name(), len(p.del))
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
