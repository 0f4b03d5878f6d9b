package core

import (
	"fmt"
	"slices"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/obs"
)

// This file implements the Rule Manager (paper §5): the periodic prediction
// tick, the migration trigger, and the four-step migration workflow of
// Fig. 7 (copy → optimize → insert into main → empty shadow).
//
// Migration runs in the background through the ASIC SDK's bulk interface
// and does not occupy the control-plane processor that services guaranteed
// insertions; its cost manifests as the window during which the snapshotted
// shadow entries still occupy shadow capacity.

// MigrationStep names one of the four Fig.-7 migration steps. Fault
// injection interrupts a migration at a step boundary; the recovery path
// (Reconcile) must restore the §4.2 invariants from whatever partial state
// the interruption left behind.
type MigrationStep uint8

// The four Fig.-7 steps.
const (
	// StepCopy is step 1: snapshot the shadow table for the background copy.
	StepCopy MigrationStep = iota
	// StepOptimize is step 2: merge fragments back into their originals.
	StepOptimize
	// StepInsert is step 3: write the optimized rules into the main table.
	StepInsert
	// StepEmpty is step 4: remove the migrated copies from the shadow table.
	StepEmpty
)

func (s MigrationStep) String() string {
	switch s {
	case StepCopy:
		return "copy"
	case StepOptimize:
		return "optimize"
	case StepInsert:
		return "insert"
	case StepEmpty:
		return "empty"
	default:
		return fmt.Sprintf("step(%d)", int(s))
	}
}

// interruptAt consults the fault hook for a step boundary.
func (a *Agent) interruptAt(step MigrationStep, now time.Duration) bool {
	return a.migInterrupt != nil && a.migInterrupt(step, now)
}

// SetMigrationInterrupt installs (or, with nil, removes) the migration
// fault hook. Fault-injection harnesses only (internal/faultinject); the
// agent is marked as needing Reconcile when the hook fires. Hooks must be
// deterministic (scripted or seeded) so fault schedules replay
// identically.
func (a *Agent) SetMigrationInterrupt(h func(step MigrationStep, now time.Duration) bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.migInterrupt = h
}

// AbortMigration cancels an in-flight migration before its background copy
// completes. Nothing physical has happened yet (steps 3–4 apply at
// completion), so the abort is clean: the snapshotted rules simply stay in
// the shadow table and the next Tick may start over. Reports whether a
// migration was actually aborted.
func (a *Agent) AbortMigration(now time.Duration) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.migr == nil || now >= a.migr.completeAt {
		// Nothing in flight (or the copy already finished; let Advance
		// apply it rather than discarding completed work).
		return false
	}
	a.migr = nil
	a.metrics.MigrationAborts++
	a.o.event(now, obs.EvMigAbort, StepCopy, 0, 0, 0)
	return true
}

// Tick drives the Rule Manager once per cfg.TickInterval: it feeds the
// predictor with the arrivals of the closing interval and, when the
// (corrected) forecast indicates the shadow table would overflow before the
// next tick, starts a migration. It returns the completion time of a
// migration started by this call, or zero.
func (a *Agent) Tick(now time.Duration) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.advance(now)
	a.lastTick = now

	occ := a.shadow.Occupancy()
	var migrate bool
	switch a.cfg.Mode {
	case MigrationThreshold:
		// Hermes-SIMPLE (§8.5): occupancy crossing a fixed threshold.
		migrate = float64(occ) >= a.cfg.Threshold*float64(a.shadowSize) && occ > 0
	default:
		// Predictive Hermes (§5.1): forecast next-interval arrivals,
		// inflate with the corrector (or the self-tuning controller), and
		// migrate pre-emptively if the shadow would overflow.
		a.cfg.Predictor.Observe(float64(a.arrivals))
		predicted := a.cfg.Predictor.Predict()
		if a.tuner != nil {
			factor := a.tuner.observe(a.metrics.Violations + a.metrics.ShadowFull)
			predicted *= 1 + factor
		} else {
			predicted = a.cfg.Corrector.Correct(predicted)
		}
		migrate = float64(occ)+predicted >= float64(a.shadowSize) && occ > 0
	}
	a.arrivals = 0

	if a.soft != nil {
		// Cached mode: every tick is also a cache-manager rebalance pass
		// (promotion/demotion under the configured policy, cover hygiene).
		a.rebalanceLocked(now)
	}

	if !migrate || a.migr != nil {
		return 0
	}
	return a.startMigration(now)
}

// ForceMigration starts a migration immediately regardless of prediction
// (used by ModQoSConfig and by tests). Returns the completion time, or zero
// if there was nothing to migrate or one is already running.
func (a *Agent) ForceMigration(now time.Duration) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.advance(now)
	if a.migr != nil || a.shadow.Occupancy() == 0 {
		return 0
	}
	return a.startMigration(now)
}

// startMigration snapshots the shadow table and kicks off the background
// copy. Steps 1–2 of Fig. 7 (copy and optimize) happen logically here; the
// physical writes complete at the returned time, when Advance applies steps
// 3–4.
func (a *Agent) startMigration(now time.Duration) time.Duration {
	if len(a.shadowIDs) == 0 {
		return 0
	}
	originals := slices.Clone(a.shadowIDs)
	entries := 0
	for _, id := range originals {
		entries += len(a.rules[id].parts)
	}

	// A crash while the snapshot is taken (step 1) loses the copy before
	// anything physical happened: the migration simply never starts.
	if a.interruptAt(StepCopy, now) {
		a.metrics.MigrationAborts++
		a.o.event(now, obs.EvMigAbort, StepCopy, 0, uint64(len(originals)), 0)
		return 0
	}
	a.o.event(now, obs.EvMigStep, StepCopy, 0, uint64(len(originals)), uint64(entries))

	// Optimize (step 2): rules migrate as their un-fragmented originals —
	// inside a single table the TCAM disambiguates overlaps by priority,
	// so fragments collapse back to one entry each. The ablation flag
	// keeps fragments instead.
	migrated := len(originals)
	if a.cfg.DisableMergeOptimization {
		migrated = entries
	}

	// A crash during the optimize pass (step 2) likewise aborts cleanly:
	// merging runs on the snapshot, off the live tables.
	if a.interruptAt(StepOptimize, now) {
		a.metrics.MigrationAborts++
		a.o.event(now, obs.EvMigAbort, StepOptimize, 0, uint64(migrated), 0)
		return 0
	}
	a.o.event(now, obs.EvMigStep, StepOptimize, 0, uint64(migrated), 0)

	// Choose the cheaper strategy: per-rule incremental inserts versus a
	// bulk rewrite of the merged main table.
	prof := a.sw.Profile()
	mainOcc := a.main.Occupancy()
	incremental := time.Duration(0)
	for i := 0; i < migrated; i++ {
		// Pessimistic: each insert shifts half the (growing) main table.
		incremental += prof.InsertLatency((mainOcc + i) / 2)
	}
	bulk := time.Duration(mainOcc+migrated) * prof.BulkWriteLatency
	cost := incremental
	if bulk < cost {
		cost = bulk
	}

	m := &migration{
		startedAt:  now,
		completeAt: now + cost,
		originals:  originals,
		naive:      a.cfg.NaiveMigration,
	}
	if m.naive {
		// Ablation: empty the shadow *first* (violating the step ordering
		// §5.2 prescribes) and account the window during which the rules
		// exist in neither table.
		var copies []classifier.Rule
		for _, id := range originals {
			copies = append(copies, a.rules[id].parts...)
		}
		a.write(now, a.shadow, a.sw.Submit, nil, copies, nil)
		a.metrics.ExposedRuleSeconds += float64(len(originals)) * cost.Seconds()
	}
	a.migr = m
	a.metrics.Migrations++
	a.metrics.MigratedRules += migrated
	a.metrics.MigrationBusy += cost
	a.o.recordMigration(cost, migrated)
	return m.completeAt
}

// Advance applies any migration whose background copy has finished by now.
// Every public mutator calls (the unexported) advance, and the simulator
// also schedules an explicit call at the completion time.
func (a *Agent) Advance(now time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.advance(now)
}

func (a *Agent) advance(now time.Duration) {
	if a.migr == nil || now < a.migr.completeAt {
		return
	}
	m := a.migr
	a.migr = nil
	done := m.completeAt

	// Step 3: write the optimized rules into the main table. Rules deleted
	// while the copy was in flight are skipped. A fault hook may cut the
	// apply off at a step boundary, modeling a crash mid-migration; the
	// partial state it leaves (rules moved so far, orphaned shadow copies)
	// is exactly what Reconcile repairs. Both steps go through the bulk
	// interface, charged to no lane.
	interrupted := false
	interruptedAt := StepInsert
	migrated := make([]classifier.Rule, 0, len(m.originals))
	// moved are the originals that left the shadow table, kept in ID order
	// in m.originals' own array behind the loop. The shadow copies of those
	// that passed their StepEmpty check wait in a.pending for step 4: every
	// main write precedes every shadow erase.
	moved := m.originals[:0]
	a.hold()
	for _, id := range m.originals {
		if a.interruptAt(StepInsert, done) {
			// Crash before this rule's main-table write: it and every
			// later original stay in the shadow table.
			interrupted = true
			break
		}
		st, ok := a.rules[id]
		if !ok || st.place != placeShadow {
			continue
		}
		gone := st.parts
		if a.cfg.DisableMergeOptimization {
			// Fragments move as-is, all of them or none: when the main table
			// cannot take every one, the rule stays in the shadow table.
			if a.main.Free() < len(st.parts) {
				continue
			}
			a.write(done, a.main, nil, st, nil, st.parts)
			migrated = append(migrated, a.plan.ins...)
		} else {
			// Merged path: install the original, drop the fragments.
			if a.write(done, a.main, nil, st, nil, st.whole()).failed > 0 {
				continue // main full: leave the rule in the shadow table
			}
			migrated = append(migrated, st.original)
			a.cuts.forget(st)
			st.parts = st.whole()
		}
		moved = append(moved, id)
		st.place = placeMain
		if m.naive {
			continue
		}
		if a.interruptAt(StepEmpty, done) {
			// Crash between the main write and the shadow erase: this rule's
			// shadow entries are orphaned until Reconcile deletes the stale
			// copies.
			interrupted = true
			interruptedAt = StepEmpty
			break
		}
		a.write(done, a.shadow, nil, st, gone, nil)
	}
	a.dropShadowResidents(moved)
	if interrupted {
		a.release(done)
		a.metrics.MigrationInterrupts++
		a.markDivergentLocked()
		a.o.event(done, obs.EvMigInterrupt, interruptedAt, 0, uint64(len(migrated)), 0)
		return
	}
	a.o.event(done, obs.EvMigStep, StepInsert, 0, uint64(len(migrated)), uint64(done-m.startedAt))
	a.o.event(done, obs.EvMigStep, StepEmpty, 0, uint64(len(migrated)), 0)
	a.o.event(done, obs.EvMigDone, 0, 0, uint64(len(migrated)), uint64(done-m.startedAt))

	// Before step 4, re-partition the rules that arrived in the shadow table
	// while the migration ran: they were cut against the pre-migration main
	// table and may now be shadowed-over by freshly migrated higher-priority
	// rules, whose shadow copies answer for them until the erase. The
	// insert-time invariant means only the rules migrated in *this* round can
	// break a remaining shadow rule, so only they need checking — not the
	// whole main table. Lowest precedence first, each once the pending
	// entries ranked below it are gone: a packet falls from a copy or a stale
	// fragment only to what answers it after, and no insert shifts past a
	// copy the erase would have removed first. Step 4 is the release, which
	// erases the rest.
	var affected []classifier.RuleID
	for _, mr := range migrated {
		affected = a.appendShadowRulesBeatenBy(affected, mr)
	}
	slices.Sort(affected)
	affected = slices.DeleteFunc(slices.Compact(affected), func(id classifier.RuleID) bool {
		return a.keepsClearOf(a.rules[id], migrated)
	})
	slices.SortFunc(affected, func(x, y classifier.RuleID) int { return cmpPrecedence(a.rules[y], a.rules[x]) })
	for _, id := range affected {
		st := a.rules[id]
		if st.place != placeShadow {
			continue // moved to the main table by an earlier re-cut
		}
		a.drain(done, st)
		a.reinstallShadowRule(done, st, false)
	}
	a.release(done)
}

// keepsClearOf is the post-migration re-check of one shadow rule: it reports
// whether the rule's fragments stay clear of every newly migrated rule that
// overlaps and beats it, and if so records each of those as a cause. Each
// lies in the region already cut away, and the Fig.-6 un-partition relies on
// a rule with fragments listing every main rule that beats it; a redundant
// rule's causes stop at its first container and stay as they are.
func (a *Agent) keepsClearOf(st *ruleState, added []classifier.Rule) bool {
	cuts := func(mr classifier.Rule) bool {
		return mr.ID != st.original.ID && mr.Match.Overlaps(st.original.Match) &&
			a.beats(mr, st.original.Priority, st.seq)
	}
	for _, mr := range added {
		if cuts(mr) && slices.ContainsFunc(st.parts, func(f classifier.Rule) bool { return f.Match.Overlaps(mr.Match) }) {
			return false
		}
	}
	for _, mr := range added {
		if len(st.parts) > 0 && cuts(mr) {
			a.cuts.addCause(st, mr.ID)
		}
	}
	return true
}

// MigrationEndsAt reports the completion time of the in-flight migration
// (zero when idle).
func (a *Agent) MigrationEndsAt() time.Duration {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.migr == nil {
		return 0
	}
	return a.migr.completeAt
}
