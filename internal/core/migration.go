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
	return a.cfg.MigrationInterrupt != nil && a.cfg.MigrationInterrupt(step, now)
}

// SetMigrationInterrupt installs (or, with nil, removes) the migration
// fault hook after construction. Fault-injection harnesses only.
func (a *Agent) SetMigrationInterrupt(h func(step MigrationStep, now time.Duration) bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cfg.MigrationInterrupt = h
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
		entries += len(a.rules[id].partIDs)
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
		for _, id := range originals {
			st := a.rules[id]
			for _, pid := range st.partIDs {
				if c, ok := a.shadow.Delete(pid); ok {
					a.sw.Submit(now, c)
				}
			}
		}
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
	// is exactly what Reconcile repairs.
	interrupted := false
	interruptedAt := StepInsert
	var migrated []classifier.Rule
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
		if a.cfg.DisableMergeOptimization {
			// Fragments move as-is.
			moved := make([]classifier.RuleID, 0, len(st.partIDs))
			for _, pid := range st.partIDs {
				frag, ok := a.shadow.Get(pid)
				if !ok && m.naive {
					frag, ok = a.fragFromPartition(id, pid)
				}
				if !ok {
					continue
				}
				if _, err := a.main.InsertRanked(frag, st.seq); err != nil {
					continue // main full: fragment stays in shadow
				}
				migrated = append(migrated, frag)
				moved = append(moved, pid)
			}
			a.dropShadowResident(st.original)
			st.place = placeMain
			st.partIDs = moved
			if !m.naive {
				if a.interruptAt(StepEmpty, done) {
					// Crash between the main writes and the shadow erase:
					// every moved fragment is orphaned in the shadow slice
					// until Reconcile deletes the stale copies.
					interrupted = true
					interruptedAt = StepEmpty
					break
				}
				for _, pid := range moved {
					a.shadow.Delete(pid)
				}
			}
			continue
		}
		// Merged path: install the original, drop the fragments.
		if _, err := a.main.InsertRanked(st.original, st.seq); err != nil {
			continue // main full: leave the rule in the shadow table
		}
		migrated = append(migrated, st.original)
		stale := st.partIDs
		a.pmap.Remove(id)
		a.dropShadowResident(st.original)
		st.place = placeMain
		st.partIDs = []classifier.RuleID{id}
		if !m.naive {
			if a.interruptAt(StepEmpty, done) {
				// Crash between the main write and the shadow erase: the
				// fragments are orphaned in the shadow slice until
				// Reconcile deletes the stale copies.
				interrupted = true
				interruptedAt = StepEmpty
				break
			}
			for _, pid := range stale {
				a.shadow.Delete(pid)
			}
		}
	}
	if interrupted {
		a.metrics.MigrationInterrupts++
		a.markDivergentLocked()
		a.o.event(done, obs.EvMigInterrupt, interruptedAt, 0, uint64(len(migrated)), 0)
		return
	}
	a.o.event(done, obs.EvMigStep, StepInsert, 0, uint64(len(migrated)), uint64(done-m.startedAt))
	a.o.event(done, obs.EvMigStep, StepEmpty, 0, uint64(len(migrated)), 0)
	a.o.event(done, obs.EvMigDone, 0, 0, uint64(len(migrated)), uint64(done-m.startedAt))

	// Step 4 happened per-rule above (the shadow copies were removed only
	// after their main-table counterparts were written).
	//
	// Finally, re-partition the rules that arrived in the shadow table
	// while the migration ran: they were cut against the pre-migration
	// main table and may now be shadowed-over by freshly migrated
	// higher-priority rules. The insert-time invariant means only the
	// rules migrated in *this* round can break a remaining shadow rule,
	// so only they need checking — not the whole main table.
	if len(migrated) == 0 {
		return
	}
	var affected []classifier.RuleID
	for _, mr := range migrated {
		affected = a.appendShadowRulesBeatenBy(affected, mr)
	}
	slices.Sort(affected)
	for _, id := range slices.Compact(affected) {
		st := a.rules[id]
		if a.shadowRuleCompatibleWith(st, migrated) {
			continue
		}
		a.reinstallShadowRule(done, st)
	}
}

// fragFromPartition reconstructs a fragment rule from the partition map
// when the naive-migration ablation already wiped the shadow copy.
func (a *Agent) fragFromPartition(original, pid classifier.RuleID) (classifier.Rule, bool) {
	p, ok := a.pmap.Lookup(original)
	if !ok {
		if st, ok2 := a.rules[original]; ok2 && st.original.ID == pid {
			return st.original, true
		}
		return classifier.Rule{}, false
	}
	for _, f := range p.Parts {
		if f.ID == pid {
			return f, true
		}
	}
	return classifier.Rule{}, false
}

// shadowRuleCompatibleWith reports whether a shadow rule's fragments stay
// disjoint from every listed (newly migrated) main rule that would beat it.
func (a *Agent) shadowRuleCompatibleWith(st *ruleState, added []classifier.Rule) bool {
	for _, mr := range added {
		if mr.ID == st.original.ID {
			continue
		}
		if !mr.Match.Overlaps(st.original.Match) {
			continue
		}
		if !a.beats(mr, st.original.Priority, st.seq) {
			continue
		}
		if a.shadowFragmentsOverlap(st, mr.Match) {
			return false
		}
	}
	return true
}

// shadowFragmentsOverlap reports whether any physical fragment of a shadow
// rule overlaps m, without scanning the shadow table: cut rules keep their
// fragment set in the partition map, uncut rules are their original match.
func (a *Agent) shadowFragmentsOverlap(st *ruleState, m classifier.Match) bool {
	p, ok := a.pmap.Lookup(st.original.ID)
	if !ok {
		return st.original.Match.Overlaps(m)
	}
	for _, f := range p.Parts {
		if f.Match.Overlaps(m) {
			return true
		}
	}
	return false
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
