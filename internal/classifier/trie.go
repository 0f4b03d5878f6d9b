package classifier

// Trie is a binary trie over destination prefixes: the one prefix tree of the
// stack. The Gate Keeper uses it as the "efficient data structure to detect
// overlapping rules" (paper §3, Correctness), and the TCAM tables and the
// software tier use it as their packet-lookup index. Rules are indexed by
// their destination prefix; because prefixes only nest, every rule whose
// destination overlaps a query lies either on the trie path down to the
// query prefix (ancestors, whose dst contains the query) or in the subtree
// rooted at it (descendants, contained by the query). Source-prefix overlap
// is then checked per candidate. A packet's candidates are exactly the rules
// on the path its destination address descends (Lookup, index.go).
//
// The zero value is an empty trie.
//
// Freeze hands out the current contents as an immutable Snapshot in O(1).
// Every node carries the ownership epoch it was created in: a node whose
// epoch equals the trie's was created since the last Freeze, is reachable
// from no snapshot, and is mutated in place; any other node is shared with
// a snapshot and is copied on the way down instead (at most the 33 nodes of
// one path per mutation). A trie that is never frozen — the Gate Keeper's
// overlap indexes — never copies.
//
// Pruned nodes are recycled through a bounded freelist: churn-heavy tables
// (the TCAM match index deletes and reinserts on every migration, and a
// steady-state insert promises 0 allocs/op) would otherwise re-allocate the
// same path nodes — and their entries backing arrays — on every
// delete/insert cycle. Only nodes no snapshot can reach are ever recycled.
type Trie struct {
	root  *trieNode
	size  int
	epoch uint32
	free  *trieNode // freelist of pruned nodes, chained through children[0]
	nfree int
}

// maxFreeNodes bounds the freelist so one transient deep trie does not pin
// memory forever.
const maxFreeNodes = 8192

// trieNode is 48 bytes, what the allocator hands out for 40 anyway; the two
// words a walk reads on every node come first.
type trieNode struct {
	children [2]*trieNode
	epoch    uint32 // Trie.epoch at creation
	// maxPrio is the highest priority among entries (undefined when there
	// are none): Lookup skips a node that cannot beat its candidate without
	// touching the entries' memory.
	maxPrio int32
	// entries are the rules whose Dst ends exactly at this node, in
	// insertion order (OverlapIter's order contract).
	entries []trieEntry
}

// Key is a rule's first-match tie-break among equal priorities: lower Rank
// wins, then lower Ord. Lookup orders candidates by (Priority descending,
// Rank ascending, Ord ascending) — tcam.Table's slot order, and SoftTable's
// priority/seq order with Rank = seq.
type Key struct{ Rank, Ord uint64 }

type trieEntry struct {
	rule Rule
	key  Key
}

// setMaxPrio recomputes maxPrio after an entry left or changed.
func (n *trieNode) setMaxPrio() {
	for i := range n.entries {
		if p := n.entries[i].rule.Priority; i == 0 || p > n.maxPrio {
			n.maxPrio = p
		}
	}
}

// newNode pops a recycled node (keeping its entries capacity) or allocates
// a fresh one, owned by the current epoch either way.
func (t *Trie) newNode() *trieNode {
	if n := t.free; n != nil {
		t.free = n.children[0]
		t.nfree--
		n.children[0] = nil
		n.epoch = t.epoch
		return n
	}
	return &trieNode{epoch: t.epoch}
}

// freeNode recycles a pruned node. The caller guarantees it is unlinked,
// empty (no entries, no children) and the trie's own: Delete makes the whole
// path its own before it prunes, so no snapshot can reach a recycled node.
func (t *Trie) freeNode(n *trieNode) {
	if t.nfree >= maxFreeNodes {
		return
	}
	n.entries = n.entries[:0]
	n.children[0] = t.free
	n.children[1] = nil
	t.free = n
	t.nfree++
}

// replace puts a node of the trie's own into *slot: a copy of the shared
// node there, or an empty one if there is none. Callers come here only for
// those two cases and leave a slot that already holds an own node alone — an
// unconditional store on the way down is measurable on the Gate Keeper's
// insert path.
func (t *Trie) replace(slot **trieNode) *trieNode {
	c := t.newNode()
	if n := *slot; n != nil {
		c.children = n.children
		c.entries = append(c.entries, n.entries...)
		c.maxPrio = n.maxPrio
	}
	*slot = c
	return c
}

// locate walks to rule id under dst without writing anything, so a miss
// copies nothing. It records the nodes passed (path[d] is the one at depth
// d; prefixes are at most 32 bits deep) and returns the rule's position
// among the entries of path[dst.Len], or -1, and the depth of the
// shallowest node a snapshot shares, or -1.
func (t *Trie) locate(dst Prefix, id RuleID, path *[33]*trieNode) (i, shared int) {
	shared = -1
	n := t.root
	for depth := uint8(0); n != nil; depth++ {
		if shared < 0 && n.epoch != t.epoch {
			shared = int(depth)
		}
		path[depth] = n
		if depth == dst.Len {
			for i := range n.entries {
				if n.entries[i].rule.ID == id {
					return i, shared
				}
			}
			break
		}
		n = n.children[(dst.Addr>>(31-depth))&1]
	}
	return -1, shared
}

// ownLocated makes a located path mutable — everything below a shared node
// is shared, so path[shared:] is replaced by copies; nothing is when shared
// is -1 — and returns the node at dst.
func (t *Trie) ownLocated(dst Prefix, path *[33]*trieNode, shared int) *trieNode {
	for d := shared; d >= 0 && d <= int(dst.Len); d++ {
		slot := &t.root
		if d > 0 {
			slot = &path[d-1].children[(dst.Addr>>(32-d))&1]
		}
		path[d] = t.replace(slot)
	}
	return path[dst.Len]
}

// Freeze returns the trie's current contents as an immutable snapshot. It
// costs O(1): the nodes are shared, and the epoch bump makes every later
// mutation copy the nodes it touches instead of writing them.
func (t *Trie) Freeze() Snapshot {
	s := Snapshot{root: t.root}
	if t.epoch++; t.epoch == 0 {
		// The 32-bit epoch wrapped: a node untouched for 2^32 freezes
		// would pass for the trie's own again. Carry on with a private copy
		// of everything, which is the trie's own by construction.
		t.root = t.root.cloneTree()
	}
	return s
}

// cloneTree deep-copies the subtree at n into nodes of epoch 0.
func (n *trieNode) cloneTree() *trieNode {
	if n == nil {
		return nil
	}
	return &trieNode{
		children: [2]*trieNode{n.children[0].cloneTree(), n.children[1].cloneTree()},
		maxPrio:  n.maxPrio,
		entries:  append([]trieEntry(nil), n.entries...),
	}
}

// Size reports the number of rules in the trie.
func (t *Trie) Size() int { return t.size }

// Insert adds a rule with the zero tie-break key — enough for the overlap
// indexes, which never rank.
func (t *Trie) Insert(r Rule) { t.InsertKeyed(r, Key{}) }

// InsertKeyed adds a rule and its tie-break key to the index. Multiple
// rules may share a destination prefix.
func (t *Trie) InsertKeyed(r Rule, k Key) {
	p := r.Match.Dst
	slot := &t.root
	for depth := uint8(0); ; depth++ {
		n := *slot
		if n == nil || n.epoch != t.epoch {
			n = t.replace(slot)
		}
		if depth == p.Len {
			if len(n.entries) == 0 || r.Priority > n.maxPrio {
				n.maxPrio = r.Priority
			}
			n.entries = append(n.entries, trieEntry{r, k})
			t.size++
			return
		}
		slot = &n.children[(p.Addr>>(31-depth))&1]
	}
}

// Delete removes the rule with the given ID from the node for prefix dst.
// It reports whether a rule was removed. The delete is fully incremental:
// nodes left with no rules and no children are pruned bottom-up along the
// access path, so long-lived tables (the TCAM match index churns on every
// migration) do not accrete garbage nodes.
func (t *Trie) Delete(dst Prefix, id RuleID) bool {
	var path [33]*trieNode
	i, shared := t.locate(dst, id, &path)
	if i < 0 {
		return false
	}
	n := t.ownLocated(dst, &path, shared)
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	n.setMaxPrio()
	t.size--
	for depth := int(dst.Len); depth > 0; depth-- {
		nd := path[depth]
		if len(nd.entries) != 0 || nd.children[0] != nil || nd.children[1] != nil {
			break
		}
		bit := (dst.Addr >> (32 - depth)) & 1
		path[depth-1].children[bit] = nil
		t.freeNode(nd)
	}
	if t.size == 0 && t.root.children[0] == nil && t.root.children[1] == nil {
		t.freeNode(t.root)
		t.root = nil
	}
	return true
}

// Update replaces the stored copy of the rule with the given ID under dst
// (e.g. after an in-place action or priority rewrite that does not move the
// rule to another destination prefix), keeping its tie-break key. It
// reports whether the rule was found.
func (t *Trie) Update(dst Prefix, r Rule) bool {
	var path [33]*trieNode
	i, shared := t.locate(dst, r.ID, &path)
	if i < 0 {
		return false
	}
	n := t.ownLocated(dst, &path, shared)
	n.entries[i].rule = r
	n.setMaxPrio()
	return true
}

// Get returns the rule with the given ID stored under dst, if present.
func (t *Trie) Get(dst Prefix, id RuleID) (Rule, bool) {
	var path [33]*trieNode
	if i, _ := t.locate(dst, id, &path); i >= 0 {
		return path[dst.Len].entries[i].rule, true
	}
	return Rule{}, false
}

// OverlapIter walks the indexed rules whose match region overlaps one query
// match. It is the single overlap traversal: ancestors on the path to the
// query's Dst first (shallowest first), then the subtree at the query's Dst
// in pre-order (0-child before 1-child), rules of one node in insertion
// order. Algorithm 1 cuts in exactly this order, so the order is a contract
// (it decides fragment shapes and minted part IDs), not an accident of the
// walk. The iterator is a value with a fixed-size stack — no closures, no
// heap — and the caller stops early simply by not calling Next again. The
// trie must not be modified while an iterator is in use.
type OverlapIter struct {
	m     Match
	ents  []trieEntry // entries of the node being yielded
	i     int         // next index into ents
	path  *trieNode   // next node on the way down to m.Dst; nil once the subtree walk began
	depth uint8       // depth of path
	// stack holds the subtree nodes still to visit. Pre-order pops one node
	// and pushes its two children, so it holds at most one pending sibling
	// per level below the subtree root plus the two just pushed: ≤ 33.
	stack [33]*trieNode
	sp    int
}

// OverlapCandidates starts an overlap walk for m.
func (t *Trie) OverlapCandidates(m Match) OverlapIter {
	return OverlapIter{m: m, path: t.root}
}

// Next returns the next rule overlapping the query, or ok=false when the
// walk is done.
func (it *OverlapIter) Next() (Rule, bool) {
	for {
		for it.i < len(it.ents) {
			r := &it.ents[it.i].rule
			it.i++
			if r.Match.Src.Overlaps(it.m.Src) {
				return *r, true
			}
		}
		var n *trieNode
		switch {
		case it.path != nil && it.depth < it.m.Dst.Len:
			// Ancestor: its dst contains the query's.
			n = it.path
			it.path = n.children[(it.m.Dst.Addr>>(31-it.depth))&1]
			it.depth++
		case it.path != nil:
			// The node at m.Dst roots the subtree of contained dsts.
			n, it.path = it.path, nil
			it.push(n)
		case it.sp > 0:
			it.sp--
			n = it.stack[it.sp]
			it.push(n)
		default:
			return Rule{}, false
		}
		it.ents, it.i = n.entries, 0
	}
}

// push schedules n's children, 0-child on top.
func (it *OverlapIter) push(n *trieNode) {
	if c := n.children[1]; c != nil {
		it.stack[it.sp] = c
		it.sp++
	}
	if c := n.children[0]; c != nil {
		it.stack[it.sp] = c
		it.sp++
	}
}

// OverlapsWhere reports whether any indexed rule overlapping m satisfies
// pred. It is the existence form of the overlap walk — the cache manager
// asks "does this software-only rule overlap a resident it beats?" and needs
// the answer without collecting candidates. Callers that care about
// allocations must pass a preallocated (reused) pred.
func (t *Trie) OverlapsWhere(m Match, pred func(Rule) bool) bool {
	it := t.OverlapCandidates(m)
	for r, ok := it.Next(); ok; r, ok = it.Next() {
		if pred(r) {
			return true
		}
	}
	return false
}

// Clear empties the trie. Snapshots taken earlier keep their contents.
func (t *Trie) Clear() {
	t.root = nil
	t.size = 0
}
