package classifier

import (
	"math"
	"math/bits"
)

// Trie is a path-compressed binary trie over destination prefixes: the one
// prefix tree of the stack. The Gate Keeper uses it as the "efficient data
// structure to detect overlapping rules" (paper §3, Correctness), and the
// TCAM tables and the software tier use it as their packet-lookup index.
// Rules are indexed by their destination prefix; because prefixes only nest,
// every rule whose destination overlaps a query lies either on the trie path
// down to the query prefix (ancestors, whose dst contains the query) or in
// the subtree below it (descendants, contained by the query). Source-prefix
// overlap is then checked per candidate. A packet's candidates are exactly
// the rules on the path its destination address descends (Lookup,
// index.go).
//
// Each node holds its own prefix, and only nodes that hold entries or
// branch (have two children) exist: a chain of entry-less single-child links
// is one edge. A child's prefix strictly extends its parent's and takes the
// branch bit the parent selects it by. InsertKeyed splits an edge where the
// new prefix diverges from it or ends inside it; Delete merges a node left
// entry-less with one child into that child. A path therefore has at most
// one node per entry-bearing prefix and branch point on it — at most 33, but
// a /24 among a couple of thousand /24s is ~12 deep instead of 25.
//
// The zero value is an empty trie.
//
// Freeze hands out the current contents as an immutable Snapshot in O(1).
// Every node carries the ownership epoch it was created in: a node whose
// epoch equals the trie's was created since the last Freeze, is reachable
// from no snapshot, and is mutated in place; any other node is shared with
// a snapshot and is copied on the way down instead (at most the nodes of
// one path per mutation). A trie that is never frozen — the Gate Keeper's
// overlap indexes — never copies.
//
// Unlinked nodes are recycled through a bounded freelist: churn-heavy tables
// (the TCAM match index deletes and reinserts on every migration, and a
// steady-state insert promises 0 allocs/op) would otherwise re-allocate the
// same nodes — and their entries backing arrays — on every delete/insert
// cycle. Only nodes no snapshot can reach are ever recycled.
//
// A frozen trie also keeps stride tables on its dense branch nodes, which
// let Snapshot.Find jump several levels at once (wide.go).
// InsertKeyed returns a Handle to the new entry's node, which the *At
// methods start from instead of the root; OnMove keeps handles current.
type Trie struct {
	root    *trieNode
	size    int
	epoch   uint32
	widened bool      // Freeze has run: the trie keeps stride tables
	free    *trieNode // freelist of unlinked nodes, chained through children[0]
	nfree   int
	moved   func(RuleID, Handle) // the OnMove hook, or nil
}

// Handle names the node that holds an entry; the zero Handle names none.
type Handle struct{ n *trieNode }

// Dst returns the destination prefix of the entries h's node holds.
func (h Handle) Dst() Prefix { return Prefix{Addr: h.n.addr, Len: h.n.plen()} }

// OnMove installs f, called with an entry's ID and new Handle whenever a
// write or Freeze's epoch wrap copies its node. f may not write the trie.
func (t *Trie) OnMove(f func(RuleID, Handle)) { t.moved = f }

// repoint reports the entries of n, a copy, at their new home.
func (t *Trie) repoint(n *trieNode) {
	for i := 0; t.moved != nil && i < len(n.entries); i++ {
		t.moved(n.entries[i].rule.ID, Handle{n})
	}
}

// maxFreeNodes bounds the freelist so one transient deep trie does not pin
// memory forever.
const maxFreeNodes = 8192

// trieNode is 64 bytes, one allocator size class and one cache line, so a
// lookup's reads of a node hit one line. The prefix is kept as the two words
// a walk tests; the branch bit and the length are derived from the netmask
// (branch, plen), so no step of a walk shifts by a variable amount.
type trieNode struct {
	children [2]*trieNode
	addr     uint32 // the node's prefix: its address
	mask     uint32 // and its netmask
	epoch    uint32 // Trie.epoch at creation
	// maxPrio is the highest priority among entries (undefined when there
	// are none): Lookup skips a node that cannot beat its candidate without
	// touching the entries' memory.
	maxPrio int32
	// wide is the node's stride table, or nil (wide.go). Only a trie that
	// has been frozen builds them, and only Snapshot.Find reads them.
	wide *wideTable
	// entries are the rules whose Dst is exactly this node's prefix, in
	// insertion order (OverlapIter's order contract).
	entries []trieEntry
}

// branch returns the address bit that picks n's child: its prefix's
// highest host bit, 0 on a /32, which has none.
func (n *trieNode) branch() uint32 {
	h := ^n.mask
	return h ^ h>>1
}

// plen returns the length of n's prefix.
func (n *trieNode) plen() uint8 { return uint8(32 - bits.TrailingZeros32(n.mask)) }

// Key is a rule's first-match tie-break among equal priorities: lower Rank
// wins, then lower Ord. Lookup orders candidates by (Priority descending,
// Rank ascending, Ord ascending) — tcam.Table's slot order, and SoftTable's
// priority/seq order with Rank = seq.
type Key struct{ Rank, Ord uint64 }

type trieEntry struct {
	rule Rule
	key  Key
}

// step returns the child of n on addr's side, picked by a 0/1 index rather
// than a jump. The write-side walks (locate, insert, the overlap walk) go
// to a different rule each time, so which way they turn is a coin flip per
// node and a jump would mispredict. Snapshot.Find turns with a jump
// instead: packet streams repeat their popular paths, and a predicted jump
// lets the next node's load start before this node's branch bit arrives.
func (n *trieNode) step(addr uint32) *trieNode {
	return n.children[b2i(addr&n.branch() != 0)]
}

// contains reports whether n's prefix contains p.
func (n *trieNode) contains(p Prefix) bool {
	return n.plen() <= p.Len && p.Addr&n.mask == n.addr
}

// onlyChild returns n's child when it has at most one, or nil.
func (n *trieNode) onlyChild() *trieNode {
	if c := n.children[0]; c != nil {
		return c
	}
	return n.children[1]
}

// setMaxPrio recomputes maxPrio after an entry left or changed.
func (n *trieNode) setMaxPrio() {
	for i := range n.entries {
		if p := n.entries[i].rule.Priority; i == 0 || p > n.maxPrio {
			n.maxPrio = p
		}
	}
}

// alloc pops a recycled node (keeping its entries capacity) or allocates a
// fresh one, owned by the current epoch either way.
func (t *Trie) alloc() *trieNode {
	if n := t.free; n != nil {
		t.free = n.children[0]
		t.nfree--
		n.children[0] = nil
		n.epoch = t.epoch
		return n
	}
	return &trieNode{epoch: t.epoch}
}

// newNode returns an own, childless, entry-less node for prefix p.
func (t *Trie) newNode(p Prefix) *trieNode {
	n := t.alloc()
	n.addr, n.mask = p.Addr, p.Mask()
	return n
}

// freeNode recycles an unlinked node. The caller guarantees it is no longer
// reachable from the trie and is the trie's own: Delete makes the whole path
// its own before it unlinks, so no snapshot can reach a recycled node.
func (t *Trie) freeNode(n *trieNode) {
	if t.nfree >= maxFreeNodes {
		return
	}
	n.entries, n.wide = n.entries[:0], nil
	n.children[0] = t.free
	n.children[1] = nil
	t.free = n
	t.nfree++
}

// copyNode replaces the shared node in *slot with a copy of the trie's own
// and returns it. Callers come here only for a shared node and leave a slot
// that already holds an own node alone — an unconditional store on the way
// down is measurable on the Gate Keeper's insert path.
func (t *Trie) copyNode(slot **trieNode) *trieNode {
	n, c := *slot, t.alloc()
	ents := c.entries
	*c = *n
	c.epoch = t.epoch
	c.entries = append(ents, n.entries...)
	*slot = c
	t.repoint(c)
	return c
}

// split hangs a new node for p in *slot, whose node c does not contain p:
// either p contains c and its node becomes c's parent, or the two diverge
// inside c's edge and a branch node at their common prefix takes both. It
// returns p's node. The branch node is taken first so that, after a Delete
// that merged one away, the freelist hands the same nodes back to the same
// roles and the leaf keeps its entries capacity.
func (t *Trie) split(slot **trieNode, p Prefix) *trieNode {
	c := *slot
	common := min(p.Len, c.plen(), uint8(bits.LeadingZeros32(p.Addr^c.addr)))
	if common == p.Len {
		n := t.newNode(p)
		n.children[b2i(c.addr&n.branch() != 0)] = c
		*slot = n
		return n
	}
	b := t.newNode(NewPrefix(p.Addr, common))
	n := t.newNode(p)
	up := b2i(p.Addr&b.branch() != 0)
	b.children[up], b.children[1-up] = n, c
	*slot = b
	return n
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// locate walks to rule id under dst without writing anything, so a miss
// copies nothing. It records the nodes passed in path (a prefix has at most
// 33 nodes above and at it) and returns the rule's position among the
// entries of path[d], the node at dst, or i = -1; and the index in path of
// the shallowest node a snapshot shares, or -1. When h names an own node,
// locate reads that node alone, as path[0].
func (t *Trie) locate(h Handle, dst Prefix, id RuleID, path *[33]*trieNode) (i, d, shared int) {
	if n := h.n; n != nil && n.epoch == t.epoch {
		path[0] = n
		return n.find(id), 0, -1
	}
	shared = -1
	for n := t.root; n != nil && n.contains(dst); n = n.step(dst.Addr) {
		if shared < 0 && n.epoch != t.epoch {
			shared = d
		}
		path[d] = n
		if n.plen() == dst.Len {
			return n.find(id), d, shared
		}
		d++
	}
	return -1, 0, shared
}

// find returns the position of rule id among n's entries, or -1.
func (n *trieNode) find(id RuleID) int {
	for i := range n.entries {
		if n.entries[i].rule.ID == id {
			return i
		}
	}
	return -1
}

// slotOf returns the link that holds path[j]: the root, or its parent's
// child pointer on dst's side.
func (t *Trie) slotOf(dst Prefix, path *[33]*trieNode, j int) **trieNode {
	if j == 0 {
		return &t.root
	}
	p := path[j-1]
	return &p.children[b2i(dst.Addr&p.branch() != 0)]
}

// ownLocated makes a located path mutable — everything below a shared node
// is shared, so path[shared:d+1] is replaced by copies; nothing is when
// shared is -1 — and returns the node at dst.
func (t *Trie) ownLocated(dst Prefix, path *[33]*trieNode, d, shared int) *trieNode {
	for j := shared; j >= 0 && j <= d; j++ {
		path[j] = t.copyNode(t.slotOf(dst, path, j))
	}
	return path[d]
}

// Freeze returns the trie's current contents as an immutable snapshot. It
// costs O(1): the nodes are shared, and the epoch bump makes every later
// mutation copy the nodes it touches instead of writing them. The first
// Freeze also gives the trie its stride tables, once, in O(n) (wide.go);
// from then on every write keeps them current.
func (t *Trie) Freeze() Snapshot {
	if !t.widened {
		t.widened = true
		t.widenAll(t.root, 0)
	}
	s := Snapshot{root: t.root}
	if t.epoch++; t.epoch == 0 {
		// The 32-bit epoch wrapped: a node untouched for 2^32 freezes
		// would pass for the trie's own again. Carry on with a private copy
		// of everything, which is the trie's own by construction, and
		// tables built for it.
		t.root = t.cloneTree(t.root)
		t.widenAll(t.root, 0)
	}
	return s
}

// cloneTree deep-copies the subtree at n into nodes of epoch 0, without
// stride tables, and re-points the handles of their entries.
func (t *Trie) cloneTree(n *trieNode) *trieNode {
	if n == nil {
		return nil
	}
	c := *n
	c.epoch, c.wide = 0, nil
	c.children = [2]*trieNode{t.cloneTree(n.children[0]), t.cloneTree(n.children[1])}
	c.entries = append([]trieEntry(nil), n.entries...)
	t.repoint(&c)
	return &c
}

// Size reports the number of rules in the trie.
func (t *Trie) Size() int { return t.size }

// Insert adds a rule with the zero tie-break key — enough for the overlap
// indexes, which never rank.
func (t *Trie) Insert(r Rule) { t.InsertKeyed(r, Key{}) }

// InsertKeyed adds a rule and its tie-break key to the index, and returns
// the Handle of the node that holds it. Multiple rules may share a
// destination prefix.
func (t *Trie) InsertKeyed(r Rule, k Key) Handle {
	p := r.Match.Dst
	slot := &t.root
	var n *trieNode
	for {
		n = *slot
		if n == nil {
			n = t.newNode(p)
			*slot = n
			break
		}
		if !n.contains(p) {
			n = t.split(slot, p)
			break
		}
		if n.epoch != t.epoch {
			n = t.copyNode(slot)
		}
		if n.plen() == p.Len {
			break
		}
		slot = &n.children[b2i(p.Addr&n.branch() != 0)]
	}
	if len(n.entries) == 0 || r.Priority > n.maxPrio {
		n.maxPrio = r.Priority
	}
	n.entries = append(n.entries, trieEntry{r, k})
	t.size++
	if t.widened {
		t.rewiden(p)
	}
	return Handle{n}
}

// Delete removes the rule with the given ID from the node for prefix dst.
// It reports whether a rule was removed. The delete is fully incremental:
// a node left with no rules is unlinked when it has no children, and merged
// into its child when it has one; a parent that the unlink leaves entry-less
// with one child is merged the same way. Long-lived tables (the TCAM match
// index churns on every migration) neither accrete garbage nodes nor grow
// chains.
func (t *Trie) Delete(dst Prefix, id RuleID) bool { return t.DeleteAt(Handle{}, dst, id) }

// DeleteAt is Delete from h, rule id's Handle: in place when the trie owns
// the node and it keeps an entry or two children, else by a walk.
func (t *Trie) DeleteAt(h Handle, dst Prefix, id RuleID) bool {
	if n := h.n; n != nil && len(n.entries) == 1 && (n.children[0] == nil || n.children[1] == nil) {
		h = Handle{}
	}
	var path [33]*trieNode
	i, d, shared := t.locate(h, dst, id, &path)
	if i < 0 {
		return false
	}
	n := t.ownLocated(dst, &path, d, shared)
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	n.setMaxPrio()
	t.size--
	if len(n.entries) == 0 && (n.children[0] == nil || n.children[1] == nil) {
		t.unlink(dst, &path, d)
	}
	if t.widened {
		t.rewiden(dst)
	}
	return true
}

// unlink takes out path[d], the node at dst, left entry-less with at most
// one child: that child, or nothing, takes its place.
func (t *Trie) unlink(dst Prefix, path *[33]*trieNode, d int) {
	n := path[d]
	c := n.onlyChild()
	*t.slotOf(dst, path, d) = c
	t.freeNode(n)
	if c != nil || d == 0 {
		return
	}
	// The parent lost a child: an entry-less parent (a branch node) is left
	// with one and merges into it.
	if pn := path[d-1]; len(pn.entries) == 0 {
		*t.slotOf(dst, path, d-1) = pn.onlyChild()
		t.freeNode(pn)
	}
}

// Update replaces the stored copy of the rule with the given ID under dst
// (e.g. after an in-place action or priority rewrite that does not move the
// rule to another destination prefix), keeping its tie-break key. It
// reports whether the rule was found.
func (t *Trie) Update(dst Prefix, r Rule) bool { return t.UpdateAt(Handle{}, dst, r) }

// UpdateAt is Update from h, r's Handle: in place when the trie owns the
// node, else by a walk that copies its path.
func (t *Trie) UpdateAt(h Handle, dst Prefix, r Rule) bool {
	var path [33]*trieNode
	i, d, shared := t.locate(h, dst, r.ID, &path)
	if i < 0 {
		return false
	}
	n := t.ownLocated(dst, &path, d, shared)
	n.entries[i].rule = r
	n.setMaxPrio()
	if t.widened {
		t.rewiden(dst)
	}
	return true
}

// Get returns the rule with the given ID stored under dst, if present.
func (t *Trie) Get(dst Prefix, id RuleID) (Rule, bool) {
	var path [33]*trieNode
	if i, d, _ := t.locate(Handle{}, dst, id, &path); i >= 0 {
		return t.GetAt(Handle{path[d]}, id)
	}
	return Rule{}, false
}

// GetAt returns rule id from h's node, shared or not, if it holds it.
func (t *Trie) GetAt(h Handle, id RuleID) (Rule, bool) {
	if i := h.n.find(id); i >= 0 {
		return h.n.entries[i].rule, true
	}
	return Rule{}, false
}

// OverlapIter walks the indexed rules whose match region overlaps one query
// match and whose priority is at least a floor. It is the single overlap
// traversal: ancestors on the path to the query's Dst first (shallowest
// first), then the subtree at the query's Dst in pre-order (0-child before
// 1-child), rules of one node in insertion order. Algorithm 1 cuts in
// exactly this order, so the order is a contract (it decides fragment shapes
// and minted part IDs), not an accident of the walk: it is the order of the
// Dst prefixes themselves — ancestors by length, then contained prefixes by
// (address, length) — whatever the trie's shape. The floor only drops rules
// from that sequence: a rule below it is skipped, and so are a node's
// entries, unread, when its maxPrio is below it; the others come out in the
// same order. A caller that wants every rule passes math.MinInt32. The
// iterator is a value with a fixed-size stack — no closures, no heap — and
// the caller stops early simply by not calling Next again. The trie must not
// be modified while an iterator is in use.
type OverlapIter struct {
	m     Match
	mmask uint32      // m.Dst's netmask
	floor int32       // lowest priority yielded
	ents  []trieEntry // entries of the node being yielded
	i     int         // next index into ents
	path  *trieNode   // next node on the way down to m.Dst; nil once the subtree walk began
	// stack holds the subtree nodes still to visit. Pre-order pops one node
	// and pushes its two children, so it holds at most one pending sibling
	// per node above the popped one plus the two just pushed; a node with
	// children is at most /31, so at most 31 nodes lie above it: ≤ 33.
	stack [33]*trieNode
	sp    int
}

// OverlapCandidates starts an overlap walk for m that yields the rules of
// priority floor and above. Algorithm 1 passes the new rule's priority: a
// main rule below it cannot beat it.
func (t *Trie) OverlapCandidates(m Match, floor int32) OverlapIter {
	return OverlapIter{m: m, mmask: m.Dst.Mask(), floor: floor, path: t.root}
}

// Next returns the next rule overlapping the query, or ok=false when the
// walk is done.
//
//hermes:hotpath
func (it *OverlapIter) Next() (Rule, bool) {
	for {
		for it.i < len(it.ents) {
			r := &it.ents[it.i].rule
			it.i++
			if r.Priority >= it.floor && r.Match.Src.Overlaps(it.m.Src) {
				return *r, true
			}
		}
		var n *trieNode
		switch {
		case it.path != nil:
			n, it.path = it.path, nil
			if (n.addr^it.m.Dst.Addr)&n.mask&it.mmask != 0 {
				// n's prefix and the query's are disjoint, and so is
				// everything below n: the walk is over.
				return Rule{}, false
			}
			if n.plen() < it.m.Dst.Len {
				// Ancestor: its dst contains the query's.
				it.path = n.step(it.m.Dst.Addr)
			} else {
				// The first node at or below m.Dst roots the subtree of
				// contained dsts.
				it.push(n)
			}
		case it.sp > 0:
			it.sp--
			n = it.stack[it.sp]
			it.push(n)
		default:
			return Rule{}, false
		}
		it.ents, it.i = n.entries, 0
		if n.maxPrio < it.floor {
			it.ents = nil
		}
	}
}

// Skip drops what is left of the node whose entry Next returned last: its
// later entries and, in the subtree phase, its subtree. Call it only after a
// Next that returned a rule. It costs the walk nothing per node: the node's
// prefix is the Dst of that entry, and the children its visit pushed, the
// only stacked nodes under that prefix, are on top of the stack.
func (it *OverlapIter) Skip() {
	dst := it.ents[it.i-1].rule.Match.Dst
	it.i = len(it.ents)
	for it.sp > 0 && (it.stack[it.sp-1].addr^dst.Addr)&dst.Mask() == 0 {
		it.sp--
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
	it := t.OverlapCandidates(m, math.MinInt32)
	for r, ok := it.Next(); ok; r, ok = it.Next() {
		if pred(r) {
			return true
		}
	}
	return false
}

// Clear empties the trie. Snapshots taken earlier keep their contents: the
// trie's own nodes go to the freelist, the shared ones are left to them.
func (t *Trie) Clear() {
	t.freeOwn(t.root)
	t.root = nil
	t.size = 0
}

// freeOwn recycles the trie's own nodes of the subtree at n. A shared node's
// subtree is all shared, so the walk stops there.
func (t *Trie) freeOwn(n *trieNode) {
	if n == nil || n.epoch != t.epoch {
		return
	}
	t.freeOwn(n.children[0])
	t.freeOwn(n.children[1])
	t.freeNode(n)
}
