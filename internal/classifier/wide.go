package classifier

import "slices"

// Stride tables: level compression for the read path (DESIGN.md §10).
//
// A dense branch node — the top of a pool of sibling prefixes — carries a
// table of 2^k slots indexed by the k address bits below its prefix.
// Snapshot.Find reads the slot instead of walking the binary nodes of
// those k levels: the slot names the node to go on at, the first one at or
// below the slot's depth on its path, and carries the first-match winner
// among the entries of the nodes it jumps over. A table is a function of
// the subtree below its node, so the binary nodes stay the tree of record:
// locate, insert, delete and the overlap walk never read a table, and a
// write repairs the tables above what it changed (rewiden).
//
// Only a trie that has been frozen keeps tables: the first Freeze widens
// the whole tree once, and from then on every write keeps the tables on its
// path current, copying a table a snapshot shares before it changes a slot,
// exactly as nodes are copied. A trie that serves no lookups — the Gate
// Keeper's overlap indexes, any write-only workload — never builds one.
//
// Stride and density come from the data. A node gets the widest stride k
// in [minStride, maxStride] at which at least half of its slots lead to a
// node; the table is dropped when fewer than a quarter do, and a full table
// is rebuilt wider when a wider stride would be half full. The gap between
// the two thresholds keeps a delete / re-insert cycle from rebuilding a
// table every time.
const (
	// minStride: a narrower table jumps too few levels to pay for reading
	// its slot.
	minStride = 3
	// maxStride caps a table at 256 slots of 16 bytes, so a write copies at
	// most 4 KB per table.
	maxStride = 8
)

// wideTable is one node's stride table.
type wideTable struct {
	slots []wideSlot
	idx   uint32 // 2^k - 1: dst>>shift&idx is dst's slot
	shift uint8  // 32 - plen - k
	k     uint8
	used  uint16 // slots whose next is not nil
	epoch uint32 // Trie.epoch at creation, as for nodes
}

// wideSlot is one k-bit extension of its table's prefix. next is the first
// node at or below the slot's depth on the slot's path whose prefix agrees
// with the slot, or nil. best is the first-match winner among the entries
// of the nodes strictly inside the stride whose prefix contains the slot's,
// or nil when they hold none. When one of those entries constrains the
// source address, best is &inStride instead and the walk goes through the
// stride's binary nodes, so the answer stays exact whatever the source.
type wideSlot struct {
	next *trieNode
	best *trieEntry
}

// inStride marks a slot whose stride holds a source-constrained entry.
var inStride trieEntry

// beats reports whether e comes before b in first-match order: higher
// priority, then lower Key. Every entry beats nil.
func (e *trieEntry) beats(b *trieEntry) bool {
	return b == nil || e.rule.Priority > b.rule.Priority ||
		(e.rule.Priority == b.rule.Priority && e.key.before(b.key))
}

// slot computes slot i of n's table w from the binary nodes below n.
// Entries of one node are met in insertion order and nodes shallowest
// first, so among entries that tie on priority and Key the one a binary
// walk meets first wins, as in Lookup.
func (w *wideTable) slot(n *trieNode, i uint32) wideSlot {
	addr, mask := n.addr|i<<w.shift, n.mask|w.idx<<w.shift
	var s wideSlot
	for c := n.step(addr); c != nil; c = c.step(addr) {
		if c.mask&mask == mask { // at or below the slot's depth
			if c.addr&mask == addr {
				s.next = c
			}
			break
		}
		if c.addr != addr&c.mask {
			break // the slot leaves c's edge: nothing below c covers it
		}
		for j := range c.entries {
			switch e := &c.entries[j]; {
			case s.best == &inStride:
			case e.rule.Match.Src != Prefix{}:
				s.best = &inStride
			case e.beats(s.best):
				s.best = e
			}
		}
	}
	return s
}

// stride returns the widest stride k in [minStride, maxStride] at which at
// least half of n's 2^k slots would lead to a node, or 0 when none would.
func stride(n *trieNode) uint8 {
	a := int(n.plen())
	var reach [maxStride + 1]int
	n.reach(a, &reach)
	for k := min(maxStride, 32-a); k >= minStride; k-- {
		if 2*reach[k] >= 1<<k {
			return uint8(k)
		}
	}
	return 0
}

// reach adds to reach[k], for each k ≤ maxStride, the slots of a stride-k
// table at depth a that n's subtree leads to: a slot leads to a node
// exactly when one edge of the subtree crosses the slot's depth inside it.
func (n *trieNode) reach(a int, reach *[maxStride + 1]int) {
	from := int(n.plen()) - a + 1
	for _, c := range n.children {
		if c == nil {
			continue
		}
		to := int(c.plen()) - a
		for k := from; k <= min(to, maxStride); k++ {
			reach[k]++
		}
		if to < maxStride {
			c.reach(a, reach)
		}
	}
}

// widen gives the trie's own node n a fresh table of stride k.
func (t *Trie) widen(n *trieNode, k uint8) {
	w := &wideTable{slots: make([]wideSlot, 1<<k), idx: 1<<k - 1, shift: 32 - n.plen() - k, k: k, epoch: t.epoch}
	for i := range w.slots {
		if w.slots[i] = w.slot(n, uint32(i)); w.slots[i].next != nil {
			w.used++
		}
	}
	n.wide = w
}

// widenDense gives the trie's own node n the table its density earns when
// no table above covers it (its prefix is at least covered bits long), and
// returns how deep the tables down to n reach.
func (t *Trie) widenDense(n *trieNode, covered uint8) uint8 {
	if p := n.plen(); p >= covered {
		if k := stride(n); k != 0 {
			t.widen(n, k)
			return p + k
		}
	}
	return covered
}

// widenAll widens every dense node of the subtree at n, top down. The
// first Freeze runs it over the whole trie.
func (t *Trie) widenAll(n *trieNode, covered uint8) {
	if n != nil {
		covered = t.widenDense(n, covered)
		t.widenAll(n.children[0], covered)
		t.widenAll(n.children[1], covered)
	}
}

// rewiden brings the tables on the path to p up to date after a write of
// an entry under p. Only the nodes above p, all the trie's own after the
// write's path copy, have tables that can see the write, and only in the
// slots that cover p. Nodes the write split in or merged away above p
// change none of those tables' other slots: a split's branch node holds no
// entries and leads to what its slot led to before, and a merged-away one
// held no entries either and its slot leads on to its one child, which
// lies inside p's slot when the node was a slot's next. Those slots are
// recomputed, and a table is copied first if a snapshot shares it and a
// slot differs. On the way down a table that thinned out is dropped, a
// full one rebuilt wider when the data allow, and a node no table covers
// widened when it has grown dense.
func (t *Trie) rewiden(p Prefix) {
	covered := uint8(0)
	for n := t.root; n != nil && n.contains(p) && n.plen() < p.Len; n = n.step(p.Addr) {
		a := n.plen()
		if w := n.wide; w != nil {
			first, count := p.Addr>>w.shift&w.idx, uint32(1)
			if p.Len < a+w.k {
				count = 1 << (a + w.k - p.Len)
				first &^= count - 1
			}
			for i := first; i < first+count; i++ {
				s := w.slot(n, i)
				if s == w.slots[i] {
					continue
				}
				if w.epoch != t.epoch {
					c := *w
					c.slots, c.epoch = slices.Clone(w.slots), t.epoch
					w, n.wide = &c, &c
				}
				if w.slots[i].next != nil {
					w.used--
				}
				if s.next != nil {
					w.used++
				}
				w.slots[i] = s
			}
			if 4*int(w.used) >= len(w.slots) {
				if int(w.used) == len(w.slots) && w.k < maxStride {
					if k := stride(n); k > w.k {
						t.widen(n, k)
					}
				}
				covered = max(covered, a+n.wide.k)
				continue
			}
			n.wide = nil
		}
		covered = t.widenDense(n, covered)
	}
}
