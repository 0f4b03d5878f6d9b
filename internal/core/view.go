package core

import (
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
	// soft and cache are set in cached mode only.
	soft   classifier.Snapshot
	cached bool
	cache  *rulecache.Manager
	// serial numbers the agent's views in publish order, from 1; flows is
	// the agent's flow cache, shared by all its views.
	serial uint64
	flows  *flowCache
}

// flowCache is an exact-match table in front of the tier walks: a slot keeps
// the winner one view's walk found for one (dst, src) and the tier that
// answered, so a repeated packet costs one slot read (DESIGN.md §10). Each
// 32-byte slot is a seqlock over key = dst<<32 | src, tag = view serial<<2 |
// hitTier and the winner: seq is odd while a filler writes.
type flowCache [1 << flowCacheBits]flowSlot

const flowCacheBits = 10

type flowSlot struct {
	seq, key, tag atomic.Uint64
	hit           classifier.HitCell
}

// slot returns the packet's slot, picked by Fibonacci hashing of its key,
// and the key.
func (c *flowCache) slot(dst, src uint32) (*flowSlot, uint64) {
	key := uint64(dst)<<32 | uint64(src)
	return &c[key*0x9E3779B97F4A7C15>>(64-flowCacheBits)], key
}

// hitTier names the tier that answered a walk, and with it the record the
// cache manager keeps of the lookup (DESIGN.md §16).
type hitTier uint64

const (
	hitHW   hitTier = iota // hardware tier (or uncached mode): SampleHW
	hitSoft                // software tier: SampleSoft
	hitNone                // no rule: RecordMiss
)

// flowLookup resolves a packet against the view through the flow cache: a
// slot holding this packet for this view's serial answers, replaying the
// cache manager's record of its tier; any other is a miss, which walks and
// fills the slot unless another filler holds it or got there first.
//
//hermes:hotpath
func (v *agentView) flowLookup(dst, src uint32) classifier.Hit {
	sl, key := v.flows.slot(dst, src)
	seq := sl.seq.Load()
	if seq&1 == 0 && sl.key.Load() == key {
		tag, h := sl.tag.Load(), sl.hit.Load()
		if tag>>2 == v.serial && sl.seq.Load() == seq {
			if v.cached {
				v.record(dst, src, h, hitTier(tag&3))
			}
			return h
		}
	}
	h, t := v.lookupTier(dst, src)
	if seq&1 == 0 && sl.seq.CompareAndSwap(seq, seq+1) {
		sl.key.Store(key)
		sl.tag.Store(v.serial<<2 | uint64(t))
		sl.hit.Store(h)
		sl.seq.Store(seq + 2)
	}
	return h
}

// lookupTier resolves a packet against the snapshot exactly as the carved
// pipeline would: shadow slice first, then main — and, in cached mode,
// finishes cover punts and hardware misses in the software tier and records
// the lookup in the cache manager. It returns the winner as a one-word
// classifier.Hit, valid while v is held (the caller copies the rule out
// once, DESIGN.md §10), and the tier that answered.
//
//hermes:hotpath
func (v *agentView) lookupTier(dst, src uint32) (classifier.Hit, hitTier) {
	h := v.shadow.Find(dst, src)
	if !h.Found() {
		h = v.main.Find(dst, src)
	}
	if !v.cached {
		return h, hitHW
	}
	t := hitHW
	if !h.Found() || h.ID() >= coverIDBase {
		if h = v.soft.Find(dst, src); h.Found() {
			t = hitSoft
		} else {
			t = hitNone
		}
	}
	v.record(dst, src, h, t)
	return h, t
}

// record makes the cache manager's record of a lookup tier t answered with
// h: off sample points a hardware-tier hit touches no shared state, keeping
// this path within the <5% overhead budget (DESIGN.md §16).
func (v *agentView) record(dst, src uint32, h classifier.Hit, t hitTier) {
	switch t {
	case hitHW:
		v.cache.SampleHW(dst, src, h.ID())
	case hitSoft:
		v.cache.SampleSoft(dst, src, h.ID())
	default:
		v.cache.RecordMiss()
	}
}

// publishView is the stale reader's path: under the exclusive agent lock
// (freezing a tier mutates its index) it assembles the snapshot for the
// current generations, sharing with the previous one every tier whose
// generation did not move, and publishes it — written before Store, never
// after. A reader that lost the race to another finds the view already
// current and returns that one.
//
//hermes:coldpath the stale reader publishes: one agentView, plus the reference tier when it moved
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
	v := &agentView{shadowGen: sg, mainGen: mg, softGen: fg, cached: a.soft != nil, cache: a.cmgr,
		serial: prev.serial + 1, flows: prev.flows}
	if v.flows == nil {
		v.flows = new(flowCache) // the first publish: this agent serves snapshot lookups
	}
	if v.shadow = prev.shadow; prev.shadowGen != sg {
		v.shadow = a.shadow.Snapshot()
		a.tierRebuilds[tierShadow].Add(1)
	}
	if v.main = prev.main; prev.mainGen != mg {
		v.main = a.main.Snapshot()
		a.tierRebuilds[tierMain].Add(1)
	}
	if v.soft = prev.soft; a.soft != nil && prev.softGen != fg {
		v.soft = a.soft.Snapshot()
		a.tierRebuilds[tierSoft].Add(1)
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
