package classifier

import "sync/atomic"

// Snapshot is an immutable view of a Trie as of one Freeze. The trie never
// writes a node a snapshot can reach, so any number of goroutines may call
// Lookup concurrently, without locks, while the trie keeps changing; the
// Hermes agent publishes snapshots behind an atomic pointer as its lock-free
// read path. The zero value is an empty snapshot.
type Snapshot struct{ root *trieNode }

// Lookup returns the first-match rule for the packet among the trie's
// current rules: Snapshot.Find's walk on the live root. A trie that was
// never frozen has no stride tables; a frozen one keeps its live stride
// tables exact (rewiden), so the walk reads them as a snapshot's would.
//
//hermes:hotpath
func (t *Trie) Lookup(dst, src uint32) (Rule, bool) {
	return Snapshot{t.root}.Lookup(dst, src)
}

// Hit is one snapshot walk's winner: a reference to the entry that answered,
// one machine word, or the zero Hit when no rule matched. It reads the
// answer for as long as the snapshot that produced it is held: a frozen
// snapshot's entries are never written in place or recycled (Trie.UpdateAt
// and DeleteAt copy a shared node first, Clear frees only the trie's own).
// A read path that passes the Hit up its layers and calls Rule once copies
// the rule once, instead of spilling and reloading the 40-byte (Rule, bool)
// result at every layer (DESIGN.md §10). It hands out no pointer into the
// snapshot, so nothing outside this package can write into one through it.
type Hit struct{ e *trieEntry }

// Found reports whether a rule matched.
func (h Hit) Found() bool { return h.e != nil }

// ID returns the winning rule's ID. The hit must be Found.
func (h Hit) ID() RuleID { return h.e.rule.ID }

// Rule returns a copy of the winning rule; ok is false for the zero Hit.
func (h Hit) Rule() (Rule, bool) {
	if h.e == nil {
		return Rule{}, false
	}
	return h.e.rule, true
}

// HitCell holds a Hit for lock-free readers, so a cache that keeps a walk's
// winner hands out no pointer into the snapshot either. The zero value
// holds the zero Hit.
type HitCell struct{ e atomic.Pointer[trieEntry] }

// Load returns the stored Hit.
func (c *HitCell) Load() Hit { return Hit{c.e.Load()} }

// Store replaces the stored Hit.
func (c *HitCell) Store(h Hit) { c.e.Store(h.e) }

// Lookup returns the first-match rule for the packet: Find's answer, copied
// out. It inlines (a Hit.Rule call here would push it past the inlining
// budget), so the walk is Find's alone.
func (s Snapshot) Lookup(dst, src uint32) (Rule, bool) {
	if e := s.Find(dst, src).e; e != nil {
		return e.rule, true
	}
	return Rule{}, false
}

// Find returns the first-match rule for the packet as a Hit: of the rules
// matching it, the one with the highest priority, ties going to the lowest
// Key (Rank, then Ord) — exactly the rule a linear scan of the rules in that
// order would return. It descends the nodes whose prefix contains the
// destination address — they hold precisely the rules whose Dst matches, one
// node per entry-bearing prefix or branch point on the path (a
// path-compressed trie has no others) — and stops at the first node that
// does not. At a node with a stride table (wide.go) it reads the slot of the
// address's next k bits instead of the k levels of binary nodes below: the
// slot's winner among the entries of the nodes it jumps over is a candidate
// like a node's, and the walk goes on at the slot's node. It reads the
// entries only of the nodes whose best priority can still beat the candidate
// in hand (deeply nested rule sets put twenty candidates on one path; most
// lose on priority alone). Zero allocations.
//
//hermes:hotpath
func (s Snapshot) Find(dst, src uint32) Hit {
	var best *trieEntry
	var bestPrio int32 // best.rule.Priority, kept out of memory: re-reading it per node cost the median lookup ~15 %
	for n := s.root; n != nil && dst&n.mask == n.addr; {
		if entries := n.entries; len(entries) != 0 && (best == nil || n.maxPrio >= bestPrio) {
			for i := range entries {
				e := &entries[i]
				if !e.rule.Match.Src.MatchesAddr(src) {
					continue
				}
				if p := e.rule.Priority; best == nil || p > bestPrio ||
					(p == bestPrio && e.key.before(best.key)) {
					best, bestPrio = e, p
				}
			}
		}
		if w := n.wide; w != nil {
			if sl := &w.slots[dst>>(w.shift&31)&w.idx]; sl.best != &inStride {
				if e := sl.best; e != nil && (best == nil || e.rule.Priority > bestPrio ||
					(e.rule.Priority == bestPrio && e.key.before(best.key))) {
					best, bestPrio = e, e.rule.Priority
				}
				n = sl.next
				continue
			}
		}
		// A jump, not step's index: see step.
		if dst&n.branch() != 0 {
			n = n.children[1]
		} else {
			n = n.children[0]
		}
	}
	return Hit{best}
}

func (k Key) before(o Key) bool {
	return k.Rank < o.Rank || (k.Rank == o.Rank && k.Ord < o.Ord)
}

// NewRuleIndex is the bulk constructor: a snapshot over rules in which,
// among equal priorities, the rule earlier in the slice wins. The rules are
// copied; the caller keeps the slice.
func NewRuleIndex(rules []Rule) Snapshot {
	var t Trie
	for i, r := range rules {
		t.InsertKeyed(r, Key{Rank: uint64(i)})
	}
	return t.Freeze()
}
