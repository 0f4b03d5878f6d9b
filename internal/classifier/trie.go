package classifier

// Trie is a binary trie over destination prefixes used by Hermes's Gate
// Keeper as the "efficient data structure to detect overlapping rules"
// (paper §3, Correctness). Rules are indexed by their destination prefix;
// because prefixes only nest, every rule whose destination overlaps a query
// lies either on the trie path down to the query prefix (ancestors, whose
// dst contains the query) or in the subtree rooted at it (descendants,
// contained by the query). Source-prefix overlap is then checked per
// candidate.
//
// The zero value is an empty trie.
//
// Pruned nodes are recycled through a bounded freelist: churn-heavy tables
// (the TCAM match index deletes and reinserts on every migration, and the
// agent's batch path promises steady-state 0 allocs/op) would otherwise
// re-allocate the same path nodes — and their rules backing arrays — on
// every delete/insert cycle.
type Trie struct {
	root  *trieNode
	size  int
	free  *trieNode // freelist of pruned nodes, chained through children[0]
	nfree int
}

// maxFreeNodes bounds the freelist so one transient deep trie does not pin
// memory forever.
const maxFreeNodes = 8192

type trieNode struct {
	children [2]*trieNode
	rules    []Rule // rules whose Dst ends exactly at this node
}

// newNode pops a recycled node (keeping its rules capacity) or allocates a
// fresh one.
func (t *Trie) newNode() *trieNode {
	if n := t.free; n != nil {
		t.free = n.children[0]
		t.nfree--
		n.children[0] = nil
		return n
	}
	return &trieNode{}
}

// freeNode recycles a pruned node. The caller guarantees it is unlinked
// and empty (no rules, no children).
func (t *Trie) freeNode(n *trieNode) {
	if t.nfree >= maxFreeNodes {
		return
	}
	n.rules = n.rules[:0]
	n.children[0] = t.free
	n.children[1] = nil
	t.free = n
	t.nfree++
}

// Size reports the number of rules in the trie.
func (t *Trie) Size() int { return t.size }

// Insert adds a rule to the index. Multiple rules may share a destination
// prefix.
func (t *Trie) Insert(r Rule) {
	if t.root == nil {
		t.root = t.newNode()
	}
	n := t.root
	p := r.Match.Dst
	for depth := uint8(0); depth < p.Len; depth++ {
		bit := (p.Addr >> (31 - depth)) & 1
		if n.children[bit] == nil {
			n.children[bit] = t.newNode()
		}
		n = n.children[bit]
	}
	n.rules = append(n.rules, r)
	t.size++
}

// Delete removes the rule with the given ID from the node for prefix dst.
// It reports whether a rule was removed. The delete is fully incremental:
// nodes left with no rules and no children are pruned bottom-up along the
// access path, so long-lived tables (the TCAM match index churns on every
// migration) do not accrete garbage nodes.
func (t *Trie) Delete(dst Prefix, id RuleID) bool {
	if t.root == nil {
		return false
	}
	// path[d] is the node at depth d; the walk fits a fixed array because
	// prefixes are at most 32 bits deep.
	var path [33]*trieNode
	n := t.root
	path[0] = n
	for depth := uint8(0); depth < dst.Len; depth++ {
		bit := (dst.Addr >> (31 - depth)) & 1
		n = n.children[bit]
		if n == nil {
			return false
		}
		path[depth+1] = n
	}
	removed := false
	for i, r := range n.rules {
		if r.ID == id {
			n.rules = append(n.rules[:i], n.rules[i+1:]...)
			t.size--
			removed = true
			break
		}
	}
	if !removed {
		return false
	}
	for depth := int(dst.Len); depth > 0; depth-- {
		nd := path[depth]
		if len(nd.rules) != 0 || nd.children[0] != nil || nd.children[1] != nil {
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
// rule to another destination prefix). It reports whether the rule was
// found.
func (t *Trie) Update(dst Prefix, r Rule) bool {
	n := t.node(dst)
	if n == nil {
		return false
	}
	for i := range n.rules {
		if n.rules[i].ID == r.ID {
			n.rules[i] = r
			return true
		}
	}
	return false
}

// Get returns the rule with the given ID stored under dst, if present.
func (t *Trie) Get(dst Prefix, id RuleID) (Rule, bool) {
	n := t.node(dst)
	if n == nil {
		return Rule{}, false
	}
	for _, r := range n.rules {
		if r.ID == id {
			return r, true
		}
	}
	return Rule{}, false
}

func (t *Trie) node(p Prefix) *trieNode {
	n := t.root
	for depth := uint8(0); n != nil && depth < p.Len; depth++ {
		bit := (p.Addr >> (31 - depth)) & 1
		n = n.children[bit]
	}
	return n
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
	rules []Rule    // rules of the node being yielded
	i     int       // next index into rules
	path  *trieNode // next node on the way down to m.Dst; nil once the subtree walk began
	depth uint8     // depth of path
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
		for it.i < len(it.rules) {
			r := &it.rules[it.i]
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
		it.rules, it.i = n.rules, 0
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
// pred. It is the existence form of the overlap walk — the Gate Keeper's
// batch fast path asks "would any main-table rule cut this one?"
// and needs the answer without collecting candidates. Callers that care
// about allocations must pass a preallocated (reused) pred.
func (t *Trie) OverlapsWhere(m Match, pred func(Rule) bool) bool {
	it := t.OverlapCandidates(m)
	for r, ok := it.Next(); ok; r, ok = it.Next() {
		if pred(r) {
			return true
		}
	}
	return false
}

// MatchIter iterates the rules whose destination prefix matches one packet
// address. It is a value type so a lookup can walk the trie with zero heap
// allocations — the packet fast path depends on that.
type MatchIter struct {
	node  *trieNode
	addr  uint32
	depth uint8
	i     int
}

// MatchCandidates starts a packet-query walk for a destination address:
// exactly the rules stored on the trie path that follows dst's bits from
// the root are yielded, because a rule's Dst matches the packet iff the
// packet address descends through the rule's node. This is the per-packet
// query, distinct from OverlapIter's prefix-overlap query (which also has
// to visit the subtree below the query prefix).
func (t *Trie) MatchCandidates(addr uint32) MatchIter {
	return MatchIter{node: t.root, addr: addr}
}

// Next returns the next candidate rule, or ok=false when the walk is done.
// Candidates arrive in ascending destination-prefix-length order; callers
// needing first-match semantics must rank them (the TCAM table ranks by
// priority, tie rank, and arrival order).
func (it *MatchIter) Next() (Rule, bool) {
	for it.node != nil {
		if it.i < len(it.node.rules) {
			r := it.node.rules[it.i]
			it.i++
			return r, true
		}
		if it.depth == 32 {
			it.node = nil
			break
		}
		bit := (it.addr >> (31 - it.depth)) & 1
		it.node = it.node.children[bit]
		it.depth++
		it.i = 0
	}
	return Rule{}, false
}

// All returns every rule in the trie in depth-first order.
func (t *Trie) All() []Rule {
	var out []Rule
	var walk func(*trieNode)
	walk = func(nd *trieNode) {
		if nd == nil {
			return
		}
		out = append(out, nd.rules...)
		walk(nd.children[0])
		walk(nd.children[1])
	}
	walk(t.root)
	return out
}

// Clear empties the trie.
func (t *Trie) Clear() {
	t.root = nil
	t.size = 0
}
