package core

import (
	"fmt"
	"slices"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/obs"
)

// This file is the crash-recovery half of the robustness story: the agent's
// rules map (plus the partition map) is the *desired* state, the physical
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

// desiredMainEntries returns, keyed by physical entry ID, the entries the
// main table should hold: the original (or, under the fragment ablation,
// the fragments) of every main-resident rule.
func (a *Agent) desiredMainEntries() map[classifier.RuleID]*ruleState {
	out := make(map[classifier.RuleID]*ruleState)
	for _, st := range a.rules {
		if st.place != placeMain {
			continue
		}
		for _, pid := range st.partIDs {
			out[pid] = st
		}
	}
	return out
}

// desiredShadowEntries returns, keyed by physical entry ID, the fragment
// content the shadow table should hold for every shadow-resident rule.
func (a *Agent) desiredShadowEntries() map[classifier.RuleID]classifier.Rule {
	out := make(map[classifier.RuleID]classifier.Rule)
	for id, st := range a.rules {
		if st.place != placeShadow {
			continue
		}
		for _, pid := range st.partIDs {
			if frag, ok := a.fragFromPartition(id, pid); ok {
				out[pid] = frag
			}
		}
	}
	return out
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
	desiredMain := a.desiredMainEntries()
	for _, e := range a.main.Rules() {
		st, ok := desiredMain[e.ID]
		if ok {
			if want, wok := a.fragFromPartition(st.original.ID, e.ID); wok && e == want {
				continue
			}
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
		st := desiredMain[pid]
		want, ok := a.fragFromPartition(st.original.ID, pid)
		if !ok {
			rep.Unrepaired++
			continue
		}
		cost, err := a.main.InsertRanked(want, st.seq)
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
	desiredShadow := a.desiredShadowEntries()
	for _, e := range a.shadow.Rules() {
		if want, ok := desiredShadow[e.ID]; ok && e == want {
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
func (a *Agent) shadowRuleIntact(st *ruleState) bool {
	part := a.partition(st.original, st.seq)
	if part.Overflow || len(part.Parts) > a.cfg.MaxPartitions {
		// The rule can no longer live in the shadow table at all.
		return false
	}
	if part.Redundant() {
		return len(st.partIDs) == 0
	}
	if len(st.partIDs) != len(part.Parts) {
		return false
	}
	// Compare fragment match multisets; priority and action are fixed by
	// the original, so matches identify fragments.
	want := make(map[classifier.Match]int, len(part.Parts))
	for _, p := range part.Parts {
		want[p.Match]++
	}
	for _, pid := range st.partIDs {
		frag, ok := a.fragFromPartition(st.original.ID, pid)
		if !ok {
			return false
		}
		physical, ok := a.shadow.Get(pid)
		if !ok || physical != frag {
			return false
		}
		if want[frag.Match] == 0 {
			return false
		}
		want[frag.Match]--
	}
	return true
}

// ruleInstalled reports whether a rule's desired physical entries are all
// present (an empty fragment set — a redundant rule — counts as installed).
func (a *Agent) ruleInstalled(st *ruleState) bool {
	switch st.place {
	case placeMain:
		for _, pid := range st.partIDs {
			if !a.main.Contains(pid) {
				return false
			}
		}
		return true
	default:
		for _, pid := range st.partIDs {
			if !a.shadow.Contains(pid) {
				return false
			}
		}
		return true
	}
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
	desiredMain := a.desiredMainEntries()
	for _, e := range a.main.Rules() {
		st, ok := desiredMain[e.ID]
		if !ok {
			return fmt.Errorf("core: stale main entry %d (%v)", e.ID, e.Match)
		}
		want, wok := a.fragFromPartition(st.original.ID, e.ID)
		if !wok || e != want {
			return fmt.Errorf("core: main entry %d diverged: have %v want %v", e.ID, e, want)
		}
		delete(desiredMain, e.ID)
	}
	for pid := range desiredMain {
		return fmt.Errorf("core: desired main entry %d missing from hardware", pid)
	}
	desiredShadow := a.desiredShadowEntries()
	for _, e := range a.shadow.Rules() {
		want, ok := desiredShadow[e.ID]
		if !ok {
			return fmt.Errorf("core: stale shadow entry %d (%v)", e.ID, e.Match)
		}
		if e != want {
			return fmt.Errorf("core: shadow entry %d diverged: have %v want %v", e.ID, e, want)
		}
		delete(desiredShadow, e.ID)
	}
	for pid := range desiredShadow {
		return fmt.Errorf("core: desired shadow entry %d missing from hardware", pid)
	}
	return nil
}
