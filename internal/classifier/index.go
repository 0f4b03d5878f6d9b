package classifier

// RuleIndex is an immutable packet-classification snapshot over a rule list
// in first-match order (highest priority first, earlier-inserted wins ties —
// i.e. TCAM order). It is built once and never mutated, so any number of
// goroutines may call Lookup concurrently without locks; the Hermes agent
// publishes one behind an atomic pointer as its lock-free read path.
//
// Internally it is a binary trie over destination prefixes whose nodes hold
// ascending slot positions into the rule list. A packet lookup walks the
// ≤33 nodes on the destination address's bit path and keeps the smallest
// slot whose source prefix also matches — the smallest slot is by
// construction the rule hardware first-match would return.
type RuleIndex struct {
	rules []Rule
	root  *indexNode
}

type indexNode struct {
	children [2]*indexNode
	// slots are positions into rules, ascending, of the rules whose Dst
	// ends exactly at this node.
	slots []int32
}

// NewRuleIndex builds a snapshot index over rules, which must already be in
// first-match order. The index takes ownership of the slice: callers must
// not mutate it afterwards (Table.Rules already hands out a fresh copy).
func NewRuleIndex(rules []Rule) *RuleIndex {
	ix := &RuleIndex{rules: rules, root: &indexNode{}}
	for i := range rules {
		n := ix.root
		p := rules[i].Match.Dst
		for depth := uint8(0); depth < p.Len; depth++ {
			bit := (p.Addr >> (31 - depth)) & 1
			if n.children[bit] == nil {
				n.children[bit] = &indexNode{}
			}
			n = n.children[bit]
		}
		n.slots = append(n.slots, int32(i))
	}
	return ix
}

// Len reports the number of indexed rules.
func (ix *RuleIndex) Len() int { return len(ix.rules) }

// Rules returns the indexed rules in first-match order. The returned slice
// is the index's backing store: read-only.
func (ix *RuleIndex) Rules() []Rule { return ix.rules }

// Lookup returns the first-match rule for the packet, exactly as a linear
// scan of the underlying ordered rule list would. Zero allocations.
func (ix *RuleIndex) Lookup(dst, src uint32) (Rule, bool) {
	best := int32(-1)
	n := ix.root
	for depth := uint8(0); n != nil; depth++ {
		for _, s := range n.slots {
			if best >= 0 && s >= best {
				// Slots are ascending per node; nothing below improves.
				break
			}
			if ix.rules[s].Match.Src.MatchesAddr(src) {
				best = s
				break
			}
		}
		if depth == 32 {
			break
		}
		n = n.children[(dst>>(31-depth))&1]
	}
	if best < 0 {
		return Rule{}, false
	}
	return ix.rules[best], true
}
