package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/obs"
	"hermes/internal/rulecache"
)

// This file wires the flow-driven rule caching hierarchy (internal/rulecache,
// DESIGN.md §16) into the agent. In cached mode (Config.Cache) the carved
// TCAM becomes the top tier of a two-tier pipeline:
//
//   - The software tier (a.soft) is authoritative: every controller rule
//     lives there with its (priority, seq) tie-break metadata, so a software
//     lookup alone always yields the single-table-oracle answer.
//   - The hardware tier holds the popular subset ("residents", installed
//     through the regular Gate Keeper paths) plus *cover* entries: rules at
//     a software-only rule's (priority, seq) spanning exactly its match,
//     whose ActionGotoNext punts matching packets to the software tier.
//
// Safety invariant (the eviction-safety argument): a hardware-tier answer
// with a real rule (ID < coverIDBase) is trusted iff every software-only
// rule h that overlaps-and-beats some resident is shielded by covers
// spanning h's whole match at h's (priority, seq). Then a real hardware
// winner r beat every cover that matched the packet, hence beats every
// shielded software-only rule matching it; an unshielded software-only rule
// beats no resident it overlaps, so r beats it too — r is the global
// winner. Covers that outlive their need are semantically harmless (the
// punt just re-resolves in the authoritative tier), which lets cover
// cleanup run lazily in the rebalance pass instead of on every mutation.
//
// classifier.CoverFor guarantees a cover set's union is exactly the shielded
// rule's match regardless of the dependency set, so an existing cover set
// never needs widening when the resident set changes.

// coverIDBase is the first rule ID minted for cover entries. It sits above
// partIDBase so fragment IDs (minted from 1<<40 upward) and controller IDs
// can never collide with it: a physical entry with ID ≥ coverIDBase is a
// cover, everything below is a real rule or fragment.
const coverIDBase classifier.RuleID = 1 << 41

// noteRuleAdded / noteRuleRemoved keep the per-rule hit-stats records in
// step with the controller-visible rule set (TrackHits and cached modes).
func (a *Agent) noteRuleAdded(id classifier.RuleID) {
	if a.cmgr != nil {
		a.cmgr.Ensure(id)
	}
}

func (a *Agent) noteRuleRemoved(id classifier.RuleID) {
	if a.cmgr != nil {
		a.cmgr.Forget(id)
	}
}

// recordPlainHit feeds the per-rule hit counter on the uncached live-table
// read path (TrackHits without a cache tier, under the LinearLookup oracle).
// Fragment hits are attributed to their original rule.
func (a *Agent) recordPlainHit(r classifier.Rule, ok bool) {
	if !ok || a.cmgr == nil {
		return
	}
	id := r.ID
	if o, isFrag := a.pmap.OriginalOf(id); isFrag {
		id = o
	}
	if s := a.cmgr.Stats(id); s != nil {
		s.RecordHit(a.cmgr.EpochNow())
	}
}

// finishCachedLookup completes a cached-mode lookup from the hardware
// tier's verdict on the live-table read path (the LinearLookup oracle, read
// lock held): real hits return directly, cover hits and misses continue into
// the software tier.
func (a *Agent) finishCachedLookup(dst, src uint32, r classifier.Rule, ok bool) (classifier.Rule, bool) {
	if ok && r.ID < coverIDBase {
		a.cmgr.SampleHW(dst, src, r.ID)
		return r, true
	}
	if sr, sok := a.soft.Lookup(dst, src); sok {
		if a.cmgr.SampleSoft(dst, src) {
			if s := a.cmgr.Stats(sr.ID); s != nil {
				s.RecordHit(a.cmgr.EpochNow())
			}
		}
		return sr, true
	}
	a.cmgr.RecordMiss()
	return classifier.Rule{}, false
}

// buildHitMap maps the IDs a snapshot lookup can resolve to onto their
// original rule's stats record, so the published snapshot can attribute
// hits without per-lookup indirection. In cached mode only software-tier
// winners are ever looked up (hardware hits go through the sample ring), so
// the map covers exactly the software rules; in TrackHits-only mode it
// covers every physical entry, fragments under their original. Requires at
// least the read lock.
func (a *Agent) buildHitMap() map[classifier.RuleID]*rulecache.RuleStats {
	if a.soft != nil {
		m := make(map[classifier.RuleID]*rulecache.RuleStats, a.soft.Len())
		for _, e := range a.soft.Entries() {
			m[e.Rule.ID] = e.Stats
		}
		return m
	}
	m := make(map[classifier.RuleID]*rulecache.RuleStats,
		a.shadow.Occupancy()+a.main.Occupancy())
	add := func(entryID classifier.RuleID) {
		if s := a.cmgr.Stats(a.originalOf(entryID)); s != nil {
			m[entryID] = s
		}
	}
	for _, e := range a.shadow.Rules() {
		add(e.ID)
	}
	for _, e := range a.main.Rules() {
		add(e.ID)
	}
	return m
}

// --- cached-mode mutation paths ------------------------------------------

// insertCached installs a rule into the authoritative software tier and
// lets the cache manager decide its hardware fate: promote immediately
// while capacity lasts, otherwise shield it with covers if any resident it
// beats would mask it. The returned Result reflects the software install —
// the guaranteed, constant-cost action the controller observed.
func (a *Agent) insertCached(now time.Duration, r classifier.Rule) (Result, error) {
	a.advance(now)
	if r.ID >= partIDBase {
		return Result{}, fmt.Errorf("%w: %d", ErrReservedID, r.ID)
	}
	if a.soft.Contains(r.ID) {
		return Result{}, fmt.Errorf("%w: %d", ErrDuplicateRule, r.ID)
	}
	a.metrics.Inserts++
	seq := a.nextSeq
	a.nextSeq++
	cost := a.soft.Insert(r, seq)
	a.soft.Entry(r.ID).Stats = a.cmgr.Ensure(r.ID)
	a.cmgr.RecordSetup(cost)
	a.trackLogical(r)

	// Promotion re-installs the rule's ID into the hardware tier, which is
	// only safe against physically consistent tables: while a fault has the
	// agent marked for Reconcile, the rule stays software-only (covers use
	// fresh never-reused IDs, so shielding stays safe even then).
	if len(a.residents) < a.cacheCfg.Capacity && !a.needsReconcile {
		if a.promoteLocked(now, r.ID) != nil {
			a.ensureCoversFor(now, r, seq)
		}
	} else {
		a.ensureCoversFor(now, r, seq)
	}

	res := Result{
		Path:       PathSoft,
		Latency:    cost,
		Completed:  now + cost,
		Guaranteed: true,
	}
	a.o.event(now, obs.EvAdmit, 0, uint64(r.ID), 0, uint64(cost))
	a.observeGuaranteed(now, res)
	return res, nil
}

// deleteCached removes a rule from both tiers.
func (a *Agent) deleteCached(now time.Duration, id classifier.RuleID) (Result, error) {
	a.advance(now)
	if !a.soft.Contains(id) {
		return Result{}, fmt.Errorf("%w: %d", ErrUnknownRule, id)
	}
	a.metrics.Deletes++
	var total time.Duration
	completed := now
	if st, resident := a.rules[id]; resident {
		m := st.original.Match
		t, c := a.removePhysical(now, st)
		total += t
		if c > completed {
			completed = c
		}
		a.dropRuleState(st)
		a.dropResident(m, id)
	}
	// Covers shielding this rule are now pointless; covers *of other rules*
	// that this rule's residency necessitated are cleaned up lazily by the
	// next rebalance (stale covers are semantically harmless).
	a.removeCoversFor(now, id)
	cost, _ := a.soft.Delete(id)
	total += cost
	if now+cost > completed {
		completed = now + cost
	}
	a.cmgr.Forget(id)
	a.untrackLogical(id)
	a.o.recordDelete(total)
	a.o.event(now, obs.EvDelete, 0, uint64(id), 0, uint64(total))
	return Result{Latency: total, Completed: completed, Guaranteed: true}, nil
}

// modifyCached updates a live rule in cached mode: action-only changes
// rewrite both tiers in place (covers are unaffected — their action is
// always the punt); priority or match changes become delete + insert.
func (a *Agent) modifyCached(now time.Duration, r classifier.Rule) (Result, error) {
	a.advance(now)
	old, _, ok := a.soft.Get(r.ID)
	if !ok {
		return Result{}, fmt.Errorf("%w: %d", ErrUnknownRule, r.ID)
	}
	a.metrics.Modifies++
	a.o.event(now, obs.EvModify, 0, uint64(r.ID), 0, 0)
	if old.Priority == r.Priority && old.Match == r.Match {
		total, _ := a.soft.UpdateAction(r.ID, r.Action)
		completed := now + total
		if st, resident := a.rules[r.ID]; resident {
			hw, done := a.rewriteAction(now, st, r.Action)
			total += hw
			completed = max(completed, done)
		}
		upd := old
		upd.Action = r.Action
		a.retrackLogical(upd)
		a.o.recordModify(total)
		return Result{Latency: total, Completed: completed, Guaranteed: true}, nil
	}
	// Priority/match change: delete + insert.
	if _, err := a.deleteCached(now, r.ID); err != nil {
		return Result{}, err
	}
	return a.insertCached(now, r)
}

// --- promotion / demotion ------------------------------------------------

// promoteLocked installs a software rule into the hardware tier through the
// regular Gate Keeper routing (bypass/shadow/main/redundant), under its
// original seq so tie-breaking is preserved. Requires a.mu held
// exclusively.
func (a *Agent) promoteLocked(now time.Duration, id classifier.RuleID) error {
	r, seq, ok := a.soft.Get(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownRule, id)
	}
	if _, resident := a.rules[id]; resident {
		return nil
	}
	// The rule's own covers become redundant the moment it is resident —
	// drop them first so it does not partition against them.
	a.removeCoversFor(now, id)
	a.promoting = true
	_, err := a.insertSeq(now, r, seq)
	a.promoting = false
	if err != nil {
		// Hardware full: restore the shield and report.
		a.ensureCoversFor(now, r, seq)
		return err
	}
	a.addResident(r)
	a.cmgr.NotePromotion()
	// Software-only rules that beat the new resident now need shielding.
	a.shieldSoftOnlyOverlapping(now, r.Match)
	return nil
}

// demoteLocked evicts a resident rule from the hardware tier (it stays
// authoritative in the software tier) and shields it with covers if it
// still beats some resident. Requires a.mu held exclusively.
func (a *Agent) demoteLocked(now time.Duration, id classifier.RuleID) {
	st, resident := a.rules[id]
	if !resident {
		return
	}
	r, seq, ok := a.soft.Get(id)
	if !ok {
		return // not a controller rule; never demote covers this way
	}
	m := st.original.Match
	a.removePhysical(now, st)
	a.dropRuleState(st)
	a.dropResident(m, id)
	a.cmgr.NoteDemotion()
	a.ensureCoversFor(now, r, seq)
}

// --- cover maintenance ---------------------------------------------------

// coversNeeded reports whether software-only rule h (at seq) overlaps and
// beats at least one hardware-resident rule — the condition under which an
// unshielded h would be masked by the hardware tier.
func (a *Agent) coversNeeded(h classifier.Rule, seq uint64) bool {
	return a.residentIndex.OverlapsWhere(h.Match, func(res classifier.Rule) bool {
		return !a.beats(res, h.Priority, seq)
	})
}

// ensureCoversFor shields a software-only rule with cover entries when it
// needs them and has none. An existing cover set always spans the rule's
// whole match (CoverFor's invariant), so it never needs widening.
func (a *Agent) ensureCoversFor(now time.Duration, h classifier.Rule, seq uint64) {
	if _, resident := a.rules[h.ID]; resident {
		return
	}
	if len(a.covers[h.ID]) > 0 {
		return
	}
	if !a.coversNeeded(h, seq) {
		return
	}
	a.installCovers(now, h, seq)
}

// shieldSoftOnlyOverlapping ensures covers for every software-only rule
// overlapping m (called after a new resident appears inside m).
func (a *Agent) shieldSoftOnlyOverlapping(now time.Duration, m classifier.Match) {
	var ids []classifier.RuleID
	it := a.soft.OverlapCandidates(m)
	for h, ok := it.Next(); ok; h, ok = it.Next() {
		ids = append(ids, h.ID)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if _, resident := a.rules[id]; resident {
			continue
		}
		if h, seq, ok := a.soft.Get(id); ok {
			a.ensureCoversFor(now, h, seq)
		}
	}
}

// installCovers writes h's cover entries into the main table: pieces from
// classifier.CoverFor aligned to the beaten residents (capped at
// MaxCoverParts, falling back to one exact-match cover), each at h's
// (priority, seq) with the punt action. If the main table cannot hold the
// covers, the beaten residents are demoted instead — with them gone, h no
// longer needs a shield at all.
func (a *Agent) installCovers(now time.Duration, h classifier.Rule, seq uint64) {
	var deps []classifier.Rule
	it := a.residentIndex.OverlapCandidates(h.Match)
	for res, ok := it.Next(); ok; res, ok = it.Next() {
		if !a.beats(res, h.Priority, seq) {
			deps = append(deps, res)
		}
	}
	regions := classifier.CoverFor(h, deps)
	if len(regions) > a.cacheCfg.MaxCoverParts {
		regions = []classifier.Match{h.Match}
	}
	installed := make([]classifier.RuleID, 0, len(regions))
	for _, m := range regions {
		cid := a.nextCoverID
		cover := classifier.Rule{
			ID:       cid,
			Match:    m,
			Priority: h.Priority,
			Action:   classifier.Action{Type: classifier.ActionGotoNext},
		}
		cost, err := a.main.InsertRanked(cover, seq)
		if err != nil {
			// Main table full. Unwind the partial shield, then make the
			// shield unnecessary by demoting every resident h beats. The
			// recursion terminates: each demotion strictly shrinks the
			// resident set.
			a.removeCoverEntries(now, installed)
			a.cmgr.NoteCoverRemovals(len(installed))
			for _, d := range deps {
				a.demoteLocked(now, d.ID)
			}
			return
		}
		a.nextCoverID++
		a.sw.Submit(now, cost)
		a.rules[cid] = a.newRuleState(cover, seq, placeMain, cid)
		// Shadow rules the cover beats must be re-cut against it, exactly
		// as for any main-table insert, or shadow-first lookup would let
		// them mask the punt.
		a.repairShadowAfterMainInsert(now, cover)
		installed = append(installed, cid)
	}
	a.covers[h.ID] = installed
	a.cmgr.NoteCoverInstalls(len(installed))
}

// removeCoversFor drops the cover entries shielding a rule.
func (a *Agent) removeCoversFor(now time.Duration, owner classifier.RuleID) {
	ids := a.covers[owner]
	if len(ids) == 0 {
		return
	}
	a.removeCoverEntries(now, ids)
	a.cmgr.NoteCoverRemovals(len(ids))
	delete(a.covers, owner)
}

func (a *Agent) removeCoverEntries(now time.Duration, ids []classifier.RuleID) {
	for _, cid := range ids {
		st, ok := a.rules[cid]
		if !ok {
			continue
		}
		a.removePhysical(now, st)
		a.dropRuleState(st)
	}
}

// --- resident-set bookkeeping --------------------------------------------

// addResident / dropResident keep the resident index and the ID-ordered
// resident list in step and mark the rule's match dirty for the next cover
// hygiene pass.
func (a *Agent) addResident(r classifier.Rule) {
	a.residentIndex.Insert(r)
	i, _ := slices.BinarySearch(a.residents, r.ID)
	a.residents = slices.Insert(a.residents, i, r.ID)
	a.noteResidentChange(r.Match)
}

func (a *Agent) dropResident(m classifier.Match, id classifier.RuleID) {
	a.residentIndex.Delete(m.Dst, id)
	i, _ := slices.BinarySearch(a.residents, id)
	a.residents = slices.Delete(a.residents, i, i+1)
	a.noteResidentChange(m)
}

// noteResidentChange records that a resident with match m appeared or
// vanished: coversNeeded can only have changed for software rules
// overlapping m, so those are all the next hygiene pass has to revisit.
func (a *Agent) noteResidentChange(m classifier.Match) {
	if a.hygieneAll {
		return
	}
	if len(a.hygieneDirty) >= 2*a.cacheCfg.Capacity {
		// Nobody is rebalancing (or everything moved at once): stop
		// collecting and let the next pass sweep every rule. The hygiene
		// pass itself starts from an empty list and demotes each resident
		// at most once, so it can never reach this bound mid-pass.
		a.hygieneAll = true
		a.hygieneDirty = a.hygieneDirty[:0]
		return
	}
	a.hygieneDirty = append(a.hygieneDirty, m)
}

// --- rebalance -----------------------------------------------------------

// rankCand is one rule in the residency ranking.
type rankCand struct {
	id       classifier.RuleID
	score    float64
	resident bool
}

// cmpRank is the residency order: score descending, rule ID ascending.
func cmpRank(x, y rankCand) int {
	if x.score != y.score {
		return cmp.Compare(y.score, x.score)
	}
	return cmp.Compare(x.id, y.id)
}

// scoreOf ranks one software-tier entry under the configured policy. Only
// the cost-aware policy looks at the hardware slots the rule occupies (its
// fragments while resident, its covers otherwise).
func (a *Agent) scoreOf(e *rulecache.SoftEntry) float64 {
	slots := 1
	if a.cacheCfg.Policy == rulecache.PolicyCostAware {
		if st, resident := a.rules[e.Rule.ID]; resident {
			slots = len(st.partIDs)
		} else {
			slots = len(a.covers[e.Rule.ID])
		}
	}
	return a.cmgr.Score(e.Stats, slots)
}

// rankLocked decides which rules deserve the Capacity hardware slots. It
// returns the wanted set best-first and, in ID order, the residents that
// fell out of it; both are nil when the resident set already is the wanted
// set.
//
// Instead of sorting every rule it sorts only the residents plus the
// software-only rules that beat the worst resident under cmpRank. That is
// enough: with the cache full, a software-only rule that does not beat the
// worst resident is beaten by all Capacity residents, so it cannot be among
// the top Capacity of all rules — the global top Capacity lies inside
// residents ∪ challengers, and the top Capacity of that subset is the same
// set in the same order. While the cache has free slots every software-only
// rule is a challenger and this is the full sort.
func (a *Agent) rankLocked() (wanted []rankCand, fallen []classifier.RuleID) {
	capacity := a.cacheCfg.Capacity
	cands := a.rankBuf[:0]
	var worst rankCand
	for i, id := range a.residents {
		c := rankCand{id: id, score: a.scoreOf(a.soft.Entry(id)), resident: true}
		//lint:ignore hotpathalloc reused scratch buffer; grows only while the resident set does
		cands = append(cands, c)
		if i == 0 || cmpRank(c, worst) > 0 {
			worst = c
		}
	}
	full := len(a.residents) >= capacity
	next := 0 // a.residents and the entries are both in ID order
	for _, e := range a.soft.Entries() {
		if next < len(a.residents) && a.residents[next] == e.Rule.ID {
			next++
			continue
		}
		c := rankCand{id: e.Rule.ID, score: a.scoreOf(e)}
		if !full || cmpRank(c, worst) < 0 {
			//lint:ignore hotpathalloc reused scratch buffer; a quiet tick finds no challenger to append
			cands = append(cands, c)
		}
	}
	a.rankBuf = cands
	challengers := len(cands) - len(a.residents)
	a.cmgr.NoteChallengers(challengers)
	if challengers == 0 {
		return nil, nil
	}
	slices.SortFunc(cands, cmpRank)
	if len(cands) <= capacity {
		return cands, nil
	}
	fallen = a.fallenBuf[:0]
	for _, c := range cands[capacity:] {
		if c.resident {
			//lint:ignore hotpathalloc reused scratch buffer; reached only when a challenger displaced a resident
			fallen = append(fallen, c.id)
		}
	}
	slices.Sort(fallen)
	a.fallenBuf = fallen
	return cands[:capacity], fallen
}

// rebalanceLocked is the cache manager's periodic pass (driven by Tick):
// advance the recency epoch, rank the rules under the configured policy,
// demote residents that fell out of the top Capacity, promote the rules
// that rose into it (bounded by MaxMovesPerRebalance), and run cover
// hygiene where the resident set changed. Its cost follows what changed: a
// pass in which no rule crossed the cut is one scan of the scores and
// nothing else. Requires a.mu held exclusively.
func (a *Agent) rebalanceLocked(now time.Duration) {
	if a.needsReconcile {
		// Promotions re-install existing IDs into hardware, unsafe while
		// the physical tables may have diverged (orphans from a cut
		// migration). The pass after Reconcile catches up.
		return
	}
	epoch := a.cmgr.AdvanceEpoch()
	a.cmgr.FoldSamples(epoch, a.originalOf)
	wanted, fallen := a.rankLocked()

	moves := 0
	maxMoves := a.cacheCfg.MaxMovesPerRebalance
	// Demotions first (they free capacity), in ID order for determinism.
	for _, id := range fallen {
		if moves >= maxMoves {
			break
		}
		// An earlier demotion's table-full fallback may already have
		// evicted this one.
		if _, resident := a.rules[id]; resident {
			//lint:ignore hotpathalloc a demotion rewrites the TCAM; quiet ticks have none
			a.demoteLocked(now, id)
			moves++
		}
	}
	// Promotions in score order, best first.
	for _, c := range wanted {
		if moves >= maxMoves {
			break
		}
		if _, resident := a.rules[c.id]; resident {
			continue
		}
		if len(a.residents) >= a.cacheCfg.Capacity {
			break
		}
		//lint:ignore hotpathalloc a promotion rewrites the TCAM; quiet ticks have none
		a.promoteLocked(now, c.id)
		moves++ // failed promotions still consumed hardware work
	}
	//lint:ignore hotpathalloc allocates only when a resident-set change left rules to revisit
	a.coverHygieneLocked(now)
}

// coverHygieneLocked repairs the shield invariant after resident-set
// changes (this pass's moves and plain deletes since the last one): a
// vanished resident may have stranded stale covers, a table-full fallback
// may have left a software-only winner unshielded. Only software rules
// overlapping a match recorded by noteResidentChange can be affected, so
// only those are visited, in ID order like the full sweep that hygieneAll
// still selects after a fault or repair.
func (a *Agent) coverHygieneLocked(now time.Duration) {
	todo := a.hygieneIDs[:0]
	if a.hygieneAll {
		a.hygieneAll = false
		todo = a.appendSoftIDsFrom(todo, 0)
	} else {
		for _, m := range a.hygieneDirty {
			it := a.soft.OverlapCandidates(m)
			for r, ok := it.Next(); ok; r, ok = it.Next() {
				todo = append(todo, r.ID)
			}
		}
		slices.Sort(todo)
		todo = slices.Compact(todo)
	}
	a.hygieneDirty = a.hygieneDirty[:0]

	visits := 0
	for i := 0; i < len(todo); i++ {
		id := todo[i]
		if _, resident := a.rules[id]; resident {
			continue
		}
		visits++
		e := a.soft.Entry(id)
		if !a.coversNeeded(e.Rule, e.Seq) {
			a.removeCoversFor(now, id)
			continue
		}
		if len(a.covers[id]) > 0 {
			continue
		}
		mark := len(a.hygieneDirty)
		a.installCovers(now, e.Rule, e.Seq)
		if len(a.hygieneDirty) > mark {
			// The main table was full and installCovers demoted the
			// residents this rule beats instead. That is rare enough to
			// finish the pass as the full sweep would — every later ID —
			// while the demoted matches stay dirty for the next pass, which
			// revisits the earlier IDs they overlap.
			todo = a.appendSoftIDsFrom(todo[:i+1], id+1)
		}
	}
	a.hygieneIDs = todo[:0]
	a.cmgr.NoteHygieneVisits(visits)
}

// appendSoftIDsFrom appends, in order, the IDs ≥ from of every software rule.
func (a *Agent) appendSoftIDsFrom(ids []classifier.RuleID, from classifier.RuleID) []classifier.RuleID {
	for _, e := range a.soft.Entries() {
		if e.Rule.ID >= from {
			ids = append(ids, e.Rule.ID)
		}
	}
	return ids
}

// --- public surface ------------------------------------------------------

// Cached reports whether the agent runs the two-tier caching hierarchy.
func (a *Agent) Cached() bool { return a.soft != nil }

// CacheStats returns the caching hierarchy's aggregate metrics (the zero
// Snapshot when neither Config.Cache nor Config.TrackHits is set).
func (a *Agent) CacheStats() rulecache.Snapshot {
	if a.cmgr == nil {
		return rulecache.Snapshot{}
	}
	return a.cmgr.Snapshot()
}

// CacheResident reports how many controller rules are currently resident
// in the hardware tier (cached mode; 0 otherwise).
func (a *Agent) CacheResident() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.residents)
}

// originalOf maps a physical entry ID (which may be a partition fragment)
// to its original rule ID, for sample-ring folds.
func (a *Agent) originalOf(id classifier.RuleID) classifier.RuleID {
	if o, isFrag := a.pmap.OriginalOf(id); isFrag {
		return o
	}
	return id
}

// RuleHits returns the recorded hit count for a rule (Config.TrackHits or
// cached mode; 0 otherwise). In cached mode it folds pending hardware-tier
// samples first, so it takes the exclusive lock.
func (a *Agent) RuleHits(id classifier.RuleID) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cmgr == nil {
		return 0
	}
	a.cmgr.FoldSamples(a.cmgr.EpochNow(), a.originalOf)
	if s := a.cmgr.Stats(id); s != nil {
		return s.Hits()
	}
	return 0
}

// Rebalance runs one promotion/demotion pass immediately (cached mode;
// normally driven by Tick). Exposed for tests and experiments that step
// virtual time themselves.
func (a *Agent) Rebalance(now time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.advance(now)
	if a.soft != nil {
		a.rebalanceLocked(now)
	}
}

// RegisterCacheMetrics exposes the agent's scrape-time counters on an obs
// registry: hermes_view_tier_rebuilds_total, hermes_view_publishes_total,
// hermes_gatekeeper_repartitions_total and hermes_gatekeeper_diverts_total
// for every agent, plus the hermes_cache_* family when hit tracking is
// enabled.
func (a *Agent) RegisterCacheMetrics(reg *obs.Registry) {
	reg.CounterFunc("hermes_gatekeeper_repartitions_total", "",
		"shadow rules re-cut and reinstalled after a main-table change (Metrics.Repartitions)",
		func() uint64 { return uint64(a.Metrics().Repartitions) })
	for _, d := range []struct {
		reason string
		count  func(Metrics) int
	}{
		{"rate", func(m Metrics) int { return m.RateLimited }},
		{"shadow_full", func(m Metrics) int { return m.ShadowFull }},
		{"oversized", func(m Metrics) int { return m.Oversized }},
	} {
		reg.CounterFunc("hermes_gatekeeper_diverts_total", obs.Labels("reason", d.reason),
			"guarded inserts the Gate Keeper sent to the main table instead of the guaranteed path, by reason (Metrics.RateLimited / ShadowFull / Oversized)",
			func() uint64 { return uint64(d.count(a.Metrics())) })
	}
	for tier, name := range [numViewTiers]string{"shadow", "main", "soft", "logical"} {
		reg.CounterFunc("hermes_view_tier_rebuilds_total", obs.Labels("tier", name),
			"lookup-snapshot tiers frozen anew, by tier (a tier whose generation did not move is shared with the previous snapshot, not frozen again)",
			a.tierRebuilds[tier].Load)
	}
	reg.CounterFunc("hermes_view_publishes_total", "",
		"lookup snapshots published by a reader that found the previous one stale (each is one lookup that left the lock-free path for the agent lock)",
		a.viewPublishes.Load)
	if a.cmgr != nil {
		a.cmgr.Register(reg)
	}
}
