package rulecache

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"

	"hermes/internal/classifier"
)

// SoftTable is the switch-CPU software tier: the authoritative store of
// every controller rule, indexed for both point lookups (by rule ID) and
// packet lookups (trie over dst prefixes, like the TCAM index). Unlike the
// hardware tier it is unbounded; what it charges instead is latency — every
// operation returns its virtual-time cost from the table's SoftProfile.
//
// The table also keeps its entries in ascending rule-ID order (the cache
// manager's ranking input and the rules dump), maintained by binary-search
// insert/remove on every mutation instead of re-sorted per read. IDs arrive
// almost sorted, so an insert is an append in the common case. First-match
// order lives in the trie: every rule is keyed by its seq, so Lookup and
// Snapshot rank candidates without consulting the table.
//
// Mutations are the caller's (the agent's) responsibility to serialize;
// Lookup and Gen are safe only against a quiescent table, which is why the
// agent reads it either under its lock or through the published snapshot.
type SoftTable struct {
	profile SoftProfile
	byID    map[classifier.RuleID]*SoftEntry
	ids     []*SoftEntry // ascending Rule.ID
	trie    classifier.Trie
	gen     atomic.Uint64
}

// SoftEntry is one software-tier rule with its first-match sequence number
// and popularity record. Rule and Seq are the table's; Stats is attached by
// the agent after Insert (nil scores as never hit).
type SoftEntry struct {
	Rule  classifier.Rule
	Seq   uint64
	Stats *RuleStats
}

// NewSoftTable builds an empty software table with the given latency
// profile (zero fields take defaults).
func NewSoftTable(p SoftProfile) *SoftTable {
	return &SoftTable{
		profile: p.withDefaults(),
		byID:    make(map[classifier.RuleID]*SoftEntry),
	}
}

// Profile returns the table's latency model.
func (t *SoftTable) Profile() SoftProfile { return t.profile }

// Gen returns the table's generation counter; it advances on every
// mutation, so snapshot readers can detect staleness the same way they do
// for the TCAM tables.
func (t *SoftTable) Gen() uint64 { return t.gen.Load() }

// Len returns the number of rules in the table.
func (t *SoftTable) Len() int { return len(t.ids) }

// Contains reports whether the rule is present.
func (t *SoftTable) Contains(id classifier.RuleID) bool {
	_, ok := t.byID[id]
	return ok
}

// Get returns the stored rule and its first-match sequence number.
func (t *SoftTable) Get(id classifier.RuleID) (classifier.Rule, uint64, bool) {
	e, ok := t.byID[id]
	if !ok {
		return classifier.Rule{}, 0, false
	}
	return e.Rule, e.Seq, true
}

// Entry returns the rule's entry, or nil if it is not present. The entry
// stays valid until the rule is deleted or re-inserted.
func (t *SoftTable) Entry(id classifier.RuleID) *SoftEntry { return t.byID[id] }

// Entries returns every entry in ascending rule-ID order. The slice is the
// table's own: read-only, and valid only until the next Insert or Delete.
func (t *SoftTable) Entries() []*SoftEntry { return t.ids }

func cmpEntryID(e *SoftEntry, id classifier.RuleID) int { return cmp.Compare(e.Rule.ID, id) }

// Insert stores the rule with its tie-breaking sequence number, replacing
// any previous entry with the same ID, and returns the virtual cost.
func (t *SoftTable) Insert(r classifier.Rule, seq uint64) time.Duration {
	if old, ok := t.byID[r.ID]; ok {
		t.unlink(old)
	}
	e := &SoftEntry{Rule: r, Seq: seq}
	t.byID[r.ID] = e
	i, _ := slices.BinarySearchFunc(t.ids, r.ID, cmpEntryID)
	t.ids = slices.Insert(t.ids, i, e)
	t.trie.InsertKeyed(r, classifier.Key{Rank: seq})
	t.gen.Add(1)
	return t.profile.Insert
}

// unlink removes the entry from the trie and the ID-ordered slice.
func (t *SoftTable) unlink(e *SoftEntry) {
	t.trie.Delete(e.Rule.Match.Dst, e.Rule.ID)
	i, _ := slices.BinarySearchFunc(t.ids, e.Rule.ID, cmpEntryID)
	t.ids = slices.Delete(t.ids, i, i+1)
}

// Delete removes the rule; ok is false if it was not present.
func (t *SoftTable) Delete(id classifier.RuleID) (time.Duration, bool) {
	e, ok := t.byID[id]
	if !ok {
		return 0, false
	}
	t.unlink(e)
	delete(t.byID, id)
	t.gen.Add(1)
	return t.profile.Delete, true
}

// UpdateAction rewrites the rule's action in place (match and priority
// unchanged), the software half of an action-only FlowMod.
func (t *SoftTable) UpdateAction(id classifier.RuleID, action classifier.Action) (time.Duration, bool) {
	e, ok := t.byID[id]
	if !ok {
		return 0, false
	}
	e.Rule.Action = action
	t.trie.Update(e.Rule.Match.Dst, e.Rule)
	t.gen.Add(1)
	return t.profile.Modify, true
}

// Lookup finds the winning rule for the packet under first-match semantics:
// highest priority wins, earlier seq breaks ties — identical to the
// monolithic single-table oracle. It allocates nothing.
func (t *SoftTable) Lookup(dst, src uint32) (classifier.Rule, bool) {
	return t.trie.Lookup(dst, src)
}

// Snapshot freezes the packet index: the returned snapshot keeps answering
// Lookup for the table's current contents, lock-free, whatever happens to
// the table afterwards. O(1); like every mutator it needs exclusive access.
func (t *SoftTable) Snapshot() classifier.Snapshot { return t.trie.Freeze() }

// OverlapCandidates walks the rules whose match regions overlap m.
func (t *SoftTable) OverlapCandidates(m classifier.Match) classifier.OverlapIter {
	return t.trie.OverlapCandidates(m)
}

// Rules returns a copy of every rule sorted by ID — the shape Agent.Rules
// reports.
func (t *SoftTable) Rules() []classifier.Rule {
	out := make([]classifier.Rule, len(t.ids))
	for i, e := range t.ids {
		out[i] = e.Rule
	}
	return out
}
