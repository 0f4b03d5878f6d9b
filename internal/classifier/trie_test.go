package classifier

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrieInsertGetDelete(t *testing.T) {
	var tr Trie
	r1 := Rule{ID: 1, Match: m("10.0.0.0/8", "0.0.0.0/0"), Priority: 10}
	r2 := Rule{ID: 2, Match: m("10.0.0.0/8", "0.0.0.0/0"), Priority: 20}
	r3 := Rule{ID: 3, Match: m("10.1.0.0/16", "0.0.0.0/0"), Priority: 5}
	tr.Insert(r1)
	tr.Insert(r2)
	tr.Insert(r3)
	checkCompressed(t, &tr)

	if tr.Size() != 3 {
		t.Fatalf("Size = %d, want 3", tr.Size())
	}
	if got, ok := tr.Get(r2.Match.Dst, 2); !ok || got.Priority != 20 {
		t.Errorf("Get(2) = %v, %v", got, ok)
	}
	if !tr.Delete(r1.Match.Dst, 1) {
		t.Error("Delete(1) failed")
	}
	if tr.Delete(r1.Match.Dst, 1) {
		t.Error("double Delete(1) succeeded")
	}
	checkCompressed(t, &tr)
	if tr.Size() != 2 {
		t.Errorf("Size after delete = %d, want 2", tr.Size())
	}
	if _, ok := tr.Get(r1.Match.Dst, 1); ok {
		t.Error("deleted rule still present")
	}
	// Deleting from a prefix that has no node.
	if tr.Delete(MustParsePrefix("172.16.0.0/12"), 99) {
		t.Error("Delete on absent prefix succeeded")
	}
}

func TestTrieOverlappingAncestorsAndDescendants(t *testing.T) {
	var tr Trie
	rules := []Rule{
		{ID: 1, Match: DstMatch(MustParsePrefix("0.0.0.0/0"))},
		{ID: 2, Match: DstMatch(MustParsePrefix("192.168.0.0/16"))},
		{ID: 3, Match: DstMatch(MustParsePrefix("192.168.1.0/24"))},
		{ID: 4, Match: DstMatch(MustParsePrefix("192.168.1.0/26"))},
		{ID: 5, Match: DstMatch(MustParsePrefix("192.168.2.0/24"))},
		{ID: 6, Match: DstMatch(MustParsePrefix("10.0.0.0/8"))},
	}
	for _, r := range rules {
		tr.Insert(r)
	}
	got := tr.Overlapping(DstMatch(MustParsePrefix("192.168.1.0/24")))
	ids := map[RuleID]bool{}
	for _, r := range got {
		ids[r.ID] = true
	}
	// Overlapping /24: ancestors 0/0, /16; itself /24; descendant /26.
	for _, want := range []RuleID{1, 2, 3, 4} {
		if !ids[want] {
			t.Errorf("missing overlap with rule %d", want)
		}
	}
	for _, not := range []RuleID{5, 6} {
		if ids[not] {
			t.Errorf("rule %d must not overlap", not)
		}
	}
}

func TestTrieOverlappingSrcFilter(t *testing.T) {
	var tr Trie
	tr.Insert(Rule{ID: 1, Match: m("192.168.1.0/24", "10.0.0.0/8")})
	tr.Insert(Rule{ID: 2, Match: m("192.168.1.0/24", "172.16.0.0/12")})
	got := tr.Overlapping(m("192.168.1.0/26", "10.1.0.0/16"))
	if len(got) != 1 || got[0].ID != 1 {
		t.Errorf("Overlapping with src filter = %v", got)
	}
}

func TestTrieOverlappingBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var tr Trie
		n := 1 + r.Intn(40)
		rules := make([]Rule, n)
		for i := range rules {
			rules[i] = Rule{ID: RuleID(i + 1), Match: randomMatch(r)}
			tr.Insert(rules[i])
		}
		checkCompressed(t, &tr)
		q := randomMatch(r)
		want := map[RuleID]bool{}
		for _, rr := range rules {
			if rr.Match.Overlaps(q) {
				want[rr.ID] = true
			}
		}
		got := tr.Overlapping(q)
		if len(got) != len(want) {
			return false
		}
		for _, rr := range got {
			if !want[rr.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestTrieAllAndClear(t *testing.T) {
	var tr Trie
	for i := 0; i < 10; i++ {
		tr.Insert(Rule{ID: RuleID(i), Match: DstMatch(NewPrefix(uint32(i)<<24, 8))})
	}
	if got := tr.All(); len(got) != 10 {
		t.Errorf("All = %d rules, want 10", len(got))
	}
	tr.Clear()
	if tr.Size() != 0 || len(tr.All()) != 0 {
		t.Error("Clear did not empty trie")
	}
	// Overlapping on empty trie.
	if got := tr.Overlapping(DstMatch(MustParsePrefix("0.0.0.0/0"))); got != nil {
		t.Errorf("Overlapping on empty trie = %v", got)
	}
}

// All returns every rule in the trie in depth-first order.
func (t *Trie) All() []Rule {
	var out []Rule
	var walk func(*trieNode)
	walk = func(nd *trieNode) {
		if nd == nil {
			return
		}
		for _, e := range nd.entries {
			out = append(out, e.rule)
		}
		walk(nd.children[0])
		walk(nd.children[1])
	}
	walk(t.root)
	return out
}

// Overlapping collects one overlap walk: the slice form no production caller
// needs any more, kept for the tests that compare whole result sets.
func (t *Trie) Overlapping(m Match) []Rule { return t.overlappingFrom(m, math.MinInt32) }

// overlappingFrom collects the overlap walk of m with a priority floor.
func (t *Trie) overlappingFrom(m Match, floor int32) []Rule {
	return t.overlappingSkipping(m, floor, func(int) bool { return false })
}

// overlappingSkipping collects the overlap walk of m with a priority floor,
// calling Skip after the k-th rule it yields whenever skip(k).
func (t *Trie) overlappingSkipping(m Match, floor int32, skip func(k int) bool) []Rule {
	var out []Rule
	it := t.OverlapCandidates(m, floor)
	for r, ok := it.Next(); ok; r, ok = it.Next() {
		if skip(len(out)) {
			it.Skip()
		}
		out = append(out, r)
	}
	return out
}

// TestOverlapsWhereMatchesOverlapping checks the allocation-free existence
// probe against the collecting query it replaces.
func TestOverlapsWhereMatchesOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		rules := randRules(rng, rng.Intn(120))
		var tr Trie
		for _, r := range rules {
			tr.Insert(r)
		}
		for probe := 0; probe < 80; probe++ {
			m := Match{
				Dst: NewPrefix(rng.Uint32(), uint8(rng.Intn(33))),
				Src: NewPrefix(rng.Uint32(), uint8(rng.Intn(17))),
			}
			prio := int32(rng.Intn(8))
			pred := func(r Rule) bool { return r.Priority >= prio }
			want := false
			for _, r := range tr.Overlapping(m) {
				if pred(r) {
					want = true
					break
				}
			}
			if got := tr.OverlapsWhere(m, pred); got != want {
				t.Fatalf("trial %d: OverlapsWhere(%v, prio>=%d) = %v, want %v",
					trial, m, prio, got, want)
			}
		}
	}
}

func TestOverlapsWhereZeroAllocs(t *testing.T) {
	var tr Trie
	rng := rand.New(rand.NewSource(3))
	for _, r := range randRules(rng, 256) {
		tr.Insert(r)
	}
	m := Match{Dst: NewPrefix(0x0A000000, 8)}
	pred := func(r Rule) bool { return r.Priority >= 4 }
	allocs := testing.AllocsPerRun(200, func() {
		tr.OverlapsWhere(m, pred)
	})
	if allocs != 0 {
		t.Fatalf("OverlapsWhere allocates %.1f/op, want 0", allocs)
	}
}

// TestTrieNodeRecycling proves a delete/insert churn cycle reuses pruned
// nodes instead of re-allocating the path — the steady-state 0 allocs/op
// contract of the agent's insert path depends on it — and that recycling
// never hands out a node a snapshot can still reach.
func TestTrieNodeRecycling(t *testing.T) {
	var tr Trie
	r := Rule{ID: 1, Match: DstMatch(MustParsePrefix("10.1.2.3/32")), Priority: 1}
	// Warm-up: allocate the path once.
	tr.Insert(r)
	if !tr.Delete(r.Match.Dst, r.ID) {
		t.Fatal("warm-up delete failed")
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Insert(r)
		if !tr.Delete(r.Match.Dst, r.ID) {
			t.Fatal("delete failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("churn cycle allocates %.1f/op, want 0 (freelist reuse)", allocs)
	}
	// The recycled trie still answers correctly.
	tr.Insert(r)
	if got, ok := tr.Get(r.Match.Dst, r.ID); !ok || got != r {
		t.Fatalf("recycled trie lost the rule: %v %v", got, ok)
	}

	// Freeze the path, then churn it: the delete copies the path before it
	// unlinks, so the freelist fills with the copies, never with the nodes
	// the snapshot holds, and the snapshot keeps its answer throughout. The
	// sibling /32 splits the rule's edge at their common /29 and the branch
	// node merges away again when it goes.
	snap := tr.Freeze()
	frozen := map[any]bool{}
	frozenNodes(snap.root, frozen)
	other := Rule{ID: 2, Match: DstMatch(MustParsePrefix("10.1.2.4/32")), Priority: 1}
	for i := 0; i < 3; i++ {
		if !tr.Delete(r.Match.Dst, r.ID) {
			t.Fatal("delete under a snapshot failed")
		}
		checkOwnership(t, &tr, frozen)
		checkCompressed(t, &tr)
		tr.Insert(other)
		tr.Insert(r)
		checkOwnership(t, &tr, frozen)
		checkCompressed(t, &tr)
		if !tr.Delete(other.Match.Dst, other.ID) {
			t.Fatal("delete of the sibling failed")
		}
		checkOwnership(t, &tr, frozen)
		checkCompressed(t, &tr)
		if got, ok := snap.Lookup(r.Match.Dst.Addr, 0); !ok || got != r {
			t.Fatalf("cycle %d: snapshot answers %v,%v, want %v", i, got, ok, r)
		}
		if _, ok := snap.Lookup(other.Match.Dst.Addr, 0); ok {
			t.Fatalf("cycle %d: snapshot sees a rule inserted after the freeze", i)
		}
	}
	// A mutation that finds nothing to change copies nothing.
	tr.Freeze()
	allocs = testing.AllocsPerRun(100, func() {
		if tr.Delete(r.Match.Dst, 99) || tr.Update(other.Match.Dst, other) {
			t.Fatal("mutation of an absent rule succeeded")
		}
	})
	if allocs != 0 {
		t.Fatalf("missed Delete/Update on a frozen trie allocates %.1f/op, want 0", allocs)
	}
}
