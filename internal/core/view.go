package core

import (
	"sort"
	"sync/atomic"

	"hermes/internal/classifier"
	"hermes/internal/rulecache"
)

// This file implements the agent's lock-free read path: an immutable
// snapshot of the carved pipeline (shadow index, main index, and — when
// TrackLogical is on — the reference monolithic table) published behind an
// atomic pointer. Packet lookups validate the snapshot with three atomic
// generation loads and, when it is current, never touch the agent lock at
// all; control-plane writers invalidate it implicitly just by mutating the
// tables (every tcam.Table mutation bumps its generation counter, including
// out-of-band ones like a crash harness wiping the switch directly).
//
// A snapshot is assembled per tier: each of the shadow, main, software and
// logical indexes (and the hit map beside them) is rebuilt only when its own
// generation moved since the previous snapshot and shared with it otherwise,
// so publishing after a change costs what changed — a cache rebalance that
// moves one rule rebuilds the hardware-tier indexes and reuses the
// software-tier one.
//
// Snapshots are rebuilt lazily with hysteresis: a reader only pays the
// O(occupancy) rebuild after viewRebuildAfter consecutive lookups observe
// the same (changed) generations — i.e. the tables have quiesced. Under a
// write-heavy phase readers instead fall back to a read-locked indexed
// lookup on the live tables, which is already off the O(n) scan path.

// viewRebuildAfter is the number of consecutive stale read-path entries (at
// stable generations) after which a reader rebuilds the snapshot. Low
// enough that a quiesced table becomes lock-free almost immediately, high
// enough that insert/lookup alternation never rebuilds per packet.
const viewRebuildAfter = 4

// agentView is one immutable snapshot of the agent's lookup state. All
// fields are written before the view is published and never after.
type agentView struct {
	shadowGen  uint64
	mainGen    uint64
	logicalGen uint64
	softGen    uint64
	shadow     *classifier.RuleIndex
	main       *classifier.RuleIndex
	// logical is non-nil only when cfg.TrackLogical is set.
	logical *classifier.RuleIndex
	// soft is the software-tier index (cached mode only); cache and hits
	// are set whenever hit tracking is on (Config.Cache or TrackHits).
	soft  *classifier.RuleIndex
	cache *rulecache.Manager
	hits  map[classifier.RuleID]*rulecache.RuleStats
}

// lookup resolves a packet against the snapshot exactly as the carved
// pipeline would: shadow slice first, then main — and, in cached mode,
// finishes cover punts and hardware misses in the software tier.
func (v *agentView) lookup(dst, src uint32) (classifier.Rule, bool) {
	r, ok := v.shadow.Lookup(dst, src)
	if !ok {
		r, ok = v.main.Lookup(dst, src)
	}
	if v.soft == nil {
		if ok && v.hits != nil {
			if s := v.hits[r.ID]; s != nil {
				s.RecordHit(v.cache.EpochNow())
			}
		}
		return r, ok
	}
	if ok && r.ID < coverIDBase {
		// Off sample points (the common case) the hardware-tier hit touches
		// no shared state at all; sample points push the entry ID into the
		// manager's ring for the next tick's fold. Either way the stats map
		// stays off this path, keeping it within the <5% overhead budget.
		v.cache.SampleHW(dst, src, r.ID)
		return r, true
	}
	if sr, sok := v.soft.Lookup(dst, src); sok {
		if v.cache.SampleSoft(dst, src) {
			if s := v.hits[sr.ID]; s != nil {
				s.RecordHit(v.cache.EpochNow())
			}
		}
		return sr, true
	}
	v.cache.RecordMiss()
	return classifier.Rule{}, false
}

// viewStaleness tracks, with benign-racy atomics, how many consecutive
// read-path entries missed the snapshot while the table generations stayed
// put. Concurrent readers may slightly over- or under-count; the only
// consequence is a rebuild happening one read earlier or later.
type viewStaleness struct {
	shadowGen  atomic.Uint64
	mainGen    atomic.Uint64
	logicalGen atomic.Uint64
	softGen    atomic.Uint64
	streak     atomic.Uint32
}

// observe records one stale read at the given generations and returns the
// current streak length.
func (s *viewStaleness) observe(sg, mg, lg, fg uint64) int {
	if s.shadowGen.Load() != sg || s.mainGen.Load() != mg ||
		s.logicalGen.Load() != lg || s.softGen.Load() != fg {
		s.shadowGen.Store(sg)
		s.mainGen.Store(mg)
		s.logicalGen.Store(lg)
		s.softGen.Store(fg)
		s.streak.Store(1)
		return 1
	}
	return int(s.streak.Add(1))
}

// freshView returns a snapshot valid for the current table generations,
// rebuilding one if the hysteresis threshold has been reached, or nil when
// the caller should use the live (read-locked) tables instead. Must be
// called with at least the read lock held — the rebuild reads table
// contents, which only the lock makes stable.
func (a *Agent) freshView() *agentView {
	if a.cfg.LinearLookup {
		return nil
	}
	sg, mg, lg, fg := a.shadow.Gen(), a.main.Gen(), a.logicalGen.Load(), a.softGen()
	if v := a.view.Load(); v != nil && v.shadowGen == sg && v.mainGen == mg &&
		v.logicalGen == lg && v.softGen == fg {
		return v
	}
	if a.stale.observe(sg, mg, lg, fg) < viewRebuildAfter {
		return nil
	}
	v := a.buildView(a.view.Load(), sg, mg, lg, fg)
	a.view.Store(v)
	return v
}

// The snapshot's tiers, as hermes_view_tier_rebuilds_total labels them.
const (
	tierShadow = iota
	tierMain
	tierSoft
	tierLogical
	numViewTiers
)

// ViewTierRebuilds counts, per snapshot tier, how many times its index has
// been rebuilt (as opposed to shared with the previous snapshot).
type ViewTierRebuilds struct {
	Shadow, Main, Soft, Logical uint64
}

// ViewTierRebuilds returns the snapshot tier rebuild counters.
func (a *Agent) ViewTierRebuilds() ViewTierRebuilds {
	return ViewTierRebuilds{
		Shadow:  a.tierRebuilds[tierShadow].Load(),
		Main:    a.tierRebuilds[tierMain].Load(),
		Soft:    a.tierRebuilds[tierSoft].Load(),
		Logical: a.tierRebuilds[tierLogical].Load(),
	}
}

// buildView constructs an immutable snapshot for the given generations,
// sharing with prev (the previous snapshot, or nil) every tier whose
// generation did not move. Callers hold at least the read lock and publish
// the view themselves (write before Store, never after).
func (a *Agent) buildView(prev *agentView, sg, mg, lg, fg uint64) *agentView {
	if prev == nil {
		prev = &agentView{}
	}
	v := &agentView{shadowGen: sg, mainGen: mg, softGen: fg, cache: a.cmgr}
	hwMoved := false
	if v.shadow = prev.shadow; v.shadow == nil || prev.shadowGen != sg {
		v.shadow = classifier.NewRuleIndex(a.shadow.Rules())
		a.tierRebuilds[tierShadow].Add(1)
		hwMoved = true
	}
	if v.main = prev.main; v.main == nil || prev.mainGen != mg {
		v.main = classifier.NewRuleIndex(a.main.Rules())
		a.tierRebuilds[tierMain].Add(1)
		hwMoved = true
	}
	softMoved := false
	if a.soft != nil {
		if v.soft = prev.soft; v.soft == nil || prev.softGen != fg {
			v.soft = classifier.NewRuleIndex(a.soft.FirstMatchOrder())
			a.tierRebuilds[tierSoft].Add(1)
			softMoved = true
		}
	}
	if a.cfg.TrackLogical {
		v.logicalGen = lg
		if v.logical = prev.logical; v.logical == nil || prev.logicalGen != lg {
			v.logical = classifier.NewRuleIndex(a.logicalFirstMatchOrder())
			a.tierRebuilds[tierLogical].Add(1)
		}
	}
	if a.cmgr != nil {
		// The hit map is keyed by what lookups resolve to: software rules
		// in cached mode, physical entries otherwise (buildHitMap).
		moved := hwMoved
		if a.soft != nil {
			moved = softMoved
		}
		if v.hits = prev.hits; moved {
			v.hits = a.buildHitMap()
		}
	}
	return v
}

// refreshViewLocked republishes the snapshot at the end of a batch or a
// cache rebalance — the amortized replacement for per-op rebuild hysteresis:
// one rebuild covers every op in the batch. It keeps the lazy economics of freshView: until a
// reader has forced a first snapshot into existence there is nothing to
// refresh (pure write workloads stay rebuild-free), and a view already at
// the current generations is left untouched. Requires a.mu held
// exclusively.
func (a *Agent) refreshViewLocked() {
	if a.cfg.LinearLookup {
		return
	}
	v := a.view.Load()
	if v == nil {
		return
	}
	sg, mg, lg, fg := a.shadow.Gen(), a.main.Gen(), a.logicalGen.Load(), a.softGen()
	if v.shadowGen == sg && v.mainGen == mg && v.logicalGen == lg && v.softGen == fg {
		return
	}
	a.view.Store(a.buildView(v, sg, mg, lg, fg))
}

// logicalFirstMatchOrder returns a copy of the reference monolithic table
// sorted into first-match order: priority descending, insertion order
// breaking ties (the stable sort preserves it).
func (a *Agent) logicalFirstMatchOrder() []classifier.Rule {
	rules := append([]classifier.Rule(nil), a.logical...)
	sort.SliceStable(rules, func(i, j int) bool { return rules[i].Priority > rules[j].Priority })
	return rules
}
