package core

import (
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
// The reader that finds the snapshot stale publishes the next one
// (publishView): it takes the agent lock exclusively — so it sees only whole
// flow-mods — freezes each tier whose generation moved since the previous
// snapshot (classifier.Trie.Freeze, O(1)) and shares the others with it. A
// tier that did not move is not frozen again: freezing makes the tier's next
// write copy the index nodes it touches, which an unchanged tier would pay
// for nothing. Writers never publish. DESIGN.md §10 has the whole story.

// agentView is one immutable snapshot of the agent's lookup state. All
// fields are written before the view is published and never after.
type agentView struct {
	shadowGen  uint64
	mainGen    uint64
	logicalGen uint64
	softGen    uint64
	shadow     classifier.Snapshot
	main       classifier.Snapshot
	// logical is filled only when cfg.TrackLogical is set.
	logical classifier.Snapshot
	// soft is the software-tier index, filled in cached mode only; cache
	// and hits are set whenever hit tracking is on (Config.Cache or
	// TrackHits).
	soft   classifier.Snapshot
	cached bool
	cache  *rulecache.Manager
	hits   map[classifier.RuleID]*rulecache.RuleStats
}

// lookup resolves a packet against the snapshot exactly as the carved
// pipeline would: shadow slice first, then main — and, in cached mode,
// finishes cover punts and hardware misses in the software tier.
func (v *agentView) lookup(dst, src uint32) (classifier.Rule, bool) {
	r, ok := v.shadow.Lookup(dst, src)
	if !ok {
		r, ok = v.main.Lookup(dst, src)
	}
	if !v.cached {
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

// publishView is the stale reader's path: under the exclusive agent lock
// (freezing a tier mutates its index) it assembles the snapshot for the
// current generations, sharing with the previous one every tier whose
// generation did not move, and publishes it — written before Store, never
// after. A reader that lost the race to another finds the view already
// current and returns that one.
func (a *Agent) publishView() *agentView {
	a.mu.Lock()
	defer a.mu.Unlock()
	sg, mg, lg, fg := a.shadow.Gen(), a.main.Gen(), a.logicalGen.Load(), a.softGen()
	prev := a.view.Load()
	if prev == nil {
		// The zero view is the snapshot of tables that never changed
		// (generation 0, hence empty).
		prev = &agentView{}
	} else if prev.shadowGen == sg && prev.mainGen == mg && prev.logicalGen == lg && prev.softGen == fg {
		return prev
	}
	v := &agentView{shadowGen: sg, mainGen: mg, softGen: fg, cached: a.soft != nil, cache: a.cmgr}
	hwMoved := false
	if v.shadow = prev.shadow; prev.shadowGen != sg {
		v.shadow = a.shadow.Snapshot()
		a.tierRebuilds[tierShadow].Add(1)
		hwMoved = true
	}
	if v.main = prev.main; prev.mainGen != mg {
		v.main = a.main.Snapshot()
		a.tierRebuilds[tierMain].Add(1)
		hwMoved = true
	}
	softMoved := false
	if a.soft != nil {
		if v.soft = prev.soft; prev.softGen != fg {
			v.soft = a.soft.Snapshot()
			a.tierRebuilds[tierSoft].Add(1)
			softMoved = true
		}
	}
	if a.cfg.TrackLogical {
		// The reference table is a plain insertion-ordered slice with no
		// index of its own, so this tier is rebuilt when it moved.
		v.logicalGen = lg
		if v.logical = prev.logical; prev.logicalGen != lg {
			v.logical = classifier.NewRuleIndex(a.logical)
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
	a.view.Store(v)
	a.viewPublishes.Add(1)
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
// been frozen anew (as opposed to shared with the previous snapshot).
type ViewTierRebuilds struct {
	Shadow, Main, Soft, Logical uint64
}

// ViewTierRebuilds returns the snapshot tier freeze counters.
func (a *Agent) ViewTierRebuilds() ViewTierRebuilds {
	return ViewTierRebuilds{
		Shadow:  a.tierRebuilds[tierShadow].Load(),
		Main:    a.tierRebuilds[tierMain].Load(),
		Soft:    a.tierRebuilds[tierSoft].Load(),
		Logical: a.tierRebuilds[tierLogical].Load(),
	}
}

// ViewPublishes counts the snapshots readers had to publish: how often a
// lookup found the view stale and left the lock-free path.
func (a *Agent) ViewPublishes() uint64 { return a.viewPublishes.Load() }
