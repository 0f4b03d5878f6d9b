package classifier

import (
	"math/rand"
	"testing"
)

// randRules builds a deterministic random rule list with deliberate
// priority ties and nested prefixes so tie-breaking and ancestor/descendant
// paths are all exercised.
func randRules(rng *rand.Rand, n int) []Rule {
	out := make([]Rule, 0, n)
	for i := 0; i < n; i++ {
		plen := uint8(rng.Intn(33))
		var src Prefix
		if rng.Intn(3) == 0 {
			src = NewPrefix(rng.Uint32(), uint8(8+rng.Intn(9)))
		}
		out = append(out, Rule{
			ID:       RuleID(i + 1),
			Match:    Match{Dst: NewPrefix(rng.Uint32(), plen), Src: src},
			Priority: int32(rng.Intn(8)),
			Action:   Action{Type: ActionForward, Port: i},
		})
	}
	return out
}

// keyedRule is the oracles' model of one trie entry.
type keyedRule struct {
	Rule
	Key
}

// firstMatch is the oracle: a linear scan of every rule for the matching one
// that comes first in (priority descending, rank ascending, ord ascending)
// order. Callers keep that order total (distinct ords).
func firstMatch(rules []keyedRule, dst, src uint32) (Rule, bool) {
	var best *keyedRule
	for i := range rules {
		r := &rules[i]
		if !r.Match.MatchesPacket(dst, src) {
			continue
		}
		if best == nil || r.Priority > best.Priority || (r.Priority == best.Priority &&
			(r.Rank < best.Rank || (r.Rank == best.Rank && r.Ord < best.Ord))) {
			best = r
		}
	}
	if best == nil {
		return Rule{}, false
	}
	return best.Rule, true
}

// linearFirstMatch is the bulk constructor's oracle: the highest-priority
// matching rule, the one earlier in the slice winning ties.
func linearFirstMatch(rules []Rule, dst, src uint32) (Rule, bool) {
	keyed := make([]keyedRule, len(rules))
	for i, r := range rules {
		keyed[i] = keyedRule{r, Key{Rank: uint64(i)}}
	}
	return firstMatch(keyed, dst, src)
}

func TestRuleIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rules := randRules(rng, 1+rng.Intn(200))
		ix := NewRuleIndex(rules)
		for probe := 0; probe < 200; probe++ {
			var dst uint32
			if probe%2 == 0 && len(rules) > 0 {
				// Bias half the probes inside an installed rule's region.
				p := rules[rng.Intn(len(rules))].Match.Dst
				dst = p.Addr | (rng.Uint32() & ^p.Mask())
			} else {
				dst = rng.Uint32()
			}
			src := rng.Uint32()
			want, wok := linearFirstMatch(rules, dst, src)
			got, gok := ix.Lookup(dst, src)
			if wok != gok || got != want {
				t.Fatalf("trial %d: Lookup(%08x,%08x) = %v,%v want %v,%v",
					trial, dst, src, got, gok, want, wok)
			}
		}
	}
}

func TestRuleIndexEmpty(t *testing.T) {
	ix := NewRuleIndex(nil)
	if r, ok := ix.Lookup(0x0A000001, 0); ok {
		t.Fatalf("empty index returned %v", r)
	}
}

// TestTrieLookupExactWinner checks the one indexed lookup against the linear
// oracle on the exact rule, with keys drawn so that equal-priority ties are
// decided by rank and, within equal ranks, by ord — on the live trie and on a
// snapshot of it.
func TestTrieLookupExactWinner(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		var rules []keyedRule
		var tr Trie
		for i, r := range randRules(rng, rng.Intn(120)) {
			k := Key{Rank: uint64(rng.Intn(3)), Ord: uint64(i)}
			rules = append(rules, keyedRule{r, k})
			tr.InsertKeyed(r, k)
		}
		snap := tr.Freeze()
		for probe := 0; probe < 60; probe++ {
			dst, src := rng.Uint32(), rng.Uint32()
			if probe%2 == 0 && len(rules) > 0 {
				p := rules[rng.Intn(len(rules))].Match.Dst
				dst = p.Addr | (rng.Uint32() & ^p.Mask())
			}
			want, wok := firstMatch(rules, dst, src)
			if got, ok := tr.Lookup(dst, src); ok != wok || got != want {
				t.Fatalf("trial %d: Trie.Lookup(%08x,%08x) = %v,%v want %v,%v", trial, dst, src, got, ok, want, wok)
			}
			if got, ok := snap.Lookup(dst, src); ok != wok || got != want {
				t.Fatalf("trial %d: Snapshot.Lookup(%08x,%08x) = %v,%v want %v,%v", trial, dst, src, got, ok, want, wok)
			}
		}
	}
}

// nodeCount walks the live trie nodes (for the pruning test).
func (t *Trie) nodeCount() int {
	var walk func(*trieNode) int
	walk = func(n *trieNode) int {
		if n == nil {
			return 0
		}
		return 1 + walk(n.children[0]) + walk(n.children[1])
	}
	return walk(t.root)
}

func TestTrieDeletePrunesEmptyNodes(t *testing.T) {
	var tr Trie
	r := Rule{ID: 1, Match: DstMatch(MustParsePrefix("10.1.2.3/32")), Priority: 1}
	tr.Insert(r)
	if n := tr.nodeCount(); n != 33 {
		t.Fatalf("after insert: %d nodes, want 33", n)
	}
	if !tr.Delete(r.Match.Dst, r.ID) {
		t.Fatal("Delete returned false")
	}
	if n := tr.nodeCount(); n != 0 {
		t.Fatalf("after delete: %d nodes left, want 0 (pruned)", n)
	}

	// A shared spine must survive a sibling's deletion.
	a := Rule{ID: 2, Match: DstMatch(MustParsePrefix("10.0.0.0/9")), Priority: 1}
	b := Rule{ID: 3, Match: DstMatch(MustParsePrefix("10.128.0.0/9")), Priority: 1}
	tr.Insert(a)
	tr.Insert(b)
	before := tr.nodeCount()
	if !tr.Delete(b.Match.Dst, b.ID) {
		t.Fatal("Delete(b) returned false")
	}
	if n := tr.nodeCount(); n != before-1 {
		t.Fatalf("after sibling delete: %d nodes, want %d", n, before-1)
	}
	if got, ok := tr.Get(a.Match.Dst, a.ID); !ok || got != a {
		t.Fatalf("surviving rule lost: %v %v", got, ok)
	}

	// Deleting a missing rule must not disturb the structure.
	if tr.Delete(MustParsePrefix("192.168.0.0/16"), 99) {
		t.Fatal("Delete of absent rule returned true")
	}
	if tr.Delete(a.Match.Dst, 99) {
		t.Fatal("Delete of absent ID returned true")
	}
}

func TestTrieDeleteKeepsNodeWithRemainingRules(t *testing.T) {
	var tr Trie
	p := MustParsePrefix("10.0.0.0/8")
	tr.Insert(Rule{ID: 1, Match: DstMatch(p), Priority: 1})
	tr.Insert(Rule{ID: 2, Match: DstMatch(p), Priority: 2})
	if !tr.Delete(p, 1) {
		t.Fatal("Delete returned false")
	}
	if got, ok := tr.Get(p, 2); !ok || got.ID != 2 {
		t.Fatalf("co-resident rule lost: %v %v", got, ok)
	}
	if tr.Size() != 1 {
		t.Fatalf("Size = %d, want 1", tr.Size())
	}
}

func TestTrieUpdate(t *testing.T) {
	var tr Trie
	r := Rule{ID: 1, Match: DstMatch(MustParsePrefix("10.0.0.0/8")), Priority: 1,
		Action: Action{Type: ActionForward, Port: 1}}
	tr.Insert(r)
	r.Action = Action{Type: ActionDrop}
	r.Priority = 9
	if !tr.Update(r.Match.Dst, r) {
		t.Fatal("Update returned false")
	}
	if got, _ := tr.Get(r.Match.Dst, r.ID); got != r {
		t.Fatalf("Update not applied: %v", got)
	}
	if tr.Update(MustParsePrefix("11.0.0.0/8"), r) {
		t.Fatal("Update under wrong prefix returned true")
	}
	other := Rule{ID: 5, Match: DstMatch(MustParsePrefix("10.0.0.0/8"))}
	if tr.Update(other.Match.Dst, other) {
		t.Fatal("Update of absent ID returned true")
	}
}

func TestTrieLookupZeroAllocs(t *testing.T) {
	var tr Trie
	rng := rand.New(rand.NewSource(3))
	for _, r := range randRules(rng, 256) {
		tr.Insert(r)
	}
	allocs := testing.AllocsPerRun(200, func() {
		tr.Lookup(0x0A0B0C0D, 0xC0A80101)
	})
	if allocs != 0 {
		t.Fatalf("Trie.Lookup allocates %.1f/op, want 0", allocs)
	}
}

func TestRuleIndexLookupZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix := NewRuleIndex(randRules(rng, 512))
	allocs := testing.AllocsPerRun(200, func() {
		ix.Lookup(0x0A0B0C0D, 0xC0A80101)
	})
	if allocs != 0 {
		t.Fatalf("Snapshot.Lookup allocates %.1f/op, want 0", allocs)
	}
}
