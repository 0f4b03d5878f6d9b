package classifier

// Oracles for the Gate Keeper cut machinery. The production code streams the
// trie walk and subtracts and merges on reused buffers; the functions below
// are the from-scratch forms they replaced — collect every overlapping rule,
// allocate every fragment list, group with maps — kept here as the reference
// the equivalence tests and the fuzz target compare against.

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oracleOverlapping is OverlapIter's order contract stated as a sort key
// over a flat rule list in insertion order, sharing nothing with the trie's
// shape: the rules overlapping m, ancestors (Dst strictly containing m.Dst)
// first by Dst.Len ascending, then contained destinations by (Dst.Addr,
// Dst.Len), stable by insertion within one prefix.
func oracleOverlapping(rules []Rule, m Match) []Rule {
	var out []Rule
	for _, r := range rules {
		if r.Match.Overlaps(m) {
			out = append(out, r)
		}
	}
	isAncestor := func(r Rule) bool { return r.Match.Dst.Len < m.Dst.Len }
	slices.SortStableFunc(out, func(a, b Rule) int {
		switch aa, ba := isAncestor(a), isAncestor(b); {
		case aa && ba:
			return cmp.Compare(a.Match.Dst.Len, b.Match.Dst.Len)
		case aa:
			return -1
		case ba:
			return 1
		}
		return cmpPrefix(a.Match.Dst, b.Match.Dst)
	})
	return out
}

// oracleSkipping is Skip's oracle: the walk order want of query m, less what
// a Skip after the k-th yielded rule drops whenever skip(k) — the later rules
// of that rule's Dst and, when the rule lies at or below m.Dst (the subtree
// phase), every later rule whose Dst its Dst contains.
func oracleSkipping(want []Rule, m Match, skip func(k int) bool) []Rule {
	var out []Rule
	var dropped []Prefix // the Dsts of the rules Skip was called after
	for _, r := range want {
		if slices.ContainsFunc(dropped, func(p Prefix) bool {
			return p == r.Match.Dst || (p.Len >= m.Dst.Len && p.Contains(r.Match.Dst))
		}) {
			continue
		}
		if skip(len(out)) {
			dropped = append(dropped, r.Match.Dst)
		}
		out = append(out, r)
	}
	return out
}

func oraclePrefixSubtract(p, q Prefix) []Prefix {
	if !p.Overlaps(q) {
		return []Prefix{p}
	}
	if q.Contains(p) {
		return nil
	}
	out := make([]Prefix, 0, q.Len-p.Len)
	cur := p
	for cur.Len < q.Len {
		lo, hi := cur.Children()
		if lo.Contains(q) {
			out = append(out, hi)
			cur = lo
		} else {
			out = append(out, lo)
			cur = hi
		}
	}
	return out
}

func oracleSubtract(m, o Match) []Match {
	if !m.Overlaps(o) {
		return []Match{m}
	}
	if o.Contains(m) {
		return nil
	}
	var out []Match
	for _, d := range oraclePrefixSubtract(m.Dst, o.Dst) {
		out = append(out, Match{Dst: d, Src: m.Src})
	}
	dstInt := m.Dst
	if o.Dst.Len > dstInt.Len {
		dstInt = o.Dst
	}
	for _, s := range oraclePrefixSubtract(m.Src, o.Src) {
		out = append(out, Match{Dst: dstInt, Src: s})
	}
	return out
}

func oracleMergePrefixes(in []Prefix) []Prefix {
	if len(in) <= 1 {
		return append([]Prefix(nil), in...)
	}
	set := make(map[Prefix]bool, len(in))
	for _, p := range in {
		set[p] = true
	}
	for {
		merged := false
		for p := range set {
			if !set[p] || p.Len == 0 {
				continue
			}
			sib := p.Sibling()
			if set[sib] {
				delete(set, p)
				delete(set, sib)
				set[p.Parent()] = true
				merged = true
			}
		}
		if !merged {
			break
		}
	}
	out := make([]Prefix, 0, len(set))
	for p := range set {
		covered := false
		for q := p; q.Len > 0; {
			q = q.Parent()
			if set[q] {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, cmpPrefix)
	return out
}

func oracleMergeMatches(in []Match) []Match {
	regions := append([]Match(nil), in...)
	for {
		changed := false
		bySrc := make(map[Prefix][]Prefix)
		for _, r := range regions {
			bySrc[r.Src] = append(bySrc[r.Src], r.Dst)
		}
		var next []Match
		for src, dsts := range bySrc {
			merged := oracleMergePrefixes(dsts)
			if len(merged) < len(dsts) {
				changed = true
			}
			for _, d := range merged {
				next = append(next, Match{Dst: d, Src: src})
			}
		}
		byDst := make(map[Prefix][]Prefix)
		for _, r := range next {
			byDst[r.Dst] = append(byDst[r.Dst], r.Src)
		}
		next = next[:0]
		for dst, srcs := range byDst {
			merged := oracleMergePrefixes(srcs)
			if len(merged) < len(srcs) {
				changed = true
			}
			for _, s := range merged {
				next = append(next, Match{Dst: dst, Src: s})
			}
		}
		kept := make([]Match, 0, len(next))
		for i, r := range next {
			contained := false
			for j, o := range next {
				if i != j && o.Contains(r) && !(r.Contains(o) && i < j) {
					contained = true
					break
				}
			}
			if !contained {
				kept = append(kept, r)
			}
		}
		if len(kept) < len(next) {
			changed = true
		}
		regions = kept
		if !changed {
			slices.SortFunc(regions, cmpMatch)
			return regions
		}
	}
}

// oraclePartitionAgainst is Algorithm 1 from scratch, against the main
// table's rules in insertion order. It subtracts every winner; a winner joins
// Cause unless an earlier cause has a Dst that contains the winner's and a
// Src that contains the new rule's.
func oraclePartitionAgainst(newRule Rule, main []Rule, wins func(existing Rule) bool, nextID func() RuleID, merge bool, maxRegions int) Partition {
	p := Partition{Original: newRule}
	regions := []Match{newRule.Match}
	var causes []Rule
	for _, r := range oracleOverlapping(main, newRule.Match) {
		if r.ID == newRule.ID || !wins(r) {
			continue
		}
		if !slices.ContainsFunc(causes, func(c Rule) bool {
			return c.Match.Dst.Contains(r.Match.Dst) && c.Match.Src.Contains(newRule.Match.Src)
		}) {
			causes = append(causes, r)
			p.Cause = append(p.Cause, r.ID)
		}
		var next []Match
		for _, region := range regions {
			next = append(next, oracleSubtract(region, r.Match)...)
		}
		regions = next
		if len(regions) == 0 {
			break
		}
		if maxRegions > 0 && len(regions) > maxRegions {
			p.Overflow = true
			return p
		}
	}
	if len(p.Cause) == 0 {
		p.Parts = []Rule{newRule}
		return p
	}
	if merge {
		regions = oracleMergeMatches(regions)
	}
	for _, m := range regions {
		p.Parts = append(p.Parts, Rule{ID: nextID(), Match: m, Priority: newRule.Priority, Action: newRule.Action})
	}
	return p
}

// --- equivalence -----------------------------------------------------------

// nestedPrefix draws a prefix of any length 0–32 along one of a few address
// chains, so that containment, partial overlap and exact duplicates are all
// frequent.
func nestedPrefix(rng *rand.Rand, chains []uint32) Prefix {
	addr := chains[rng.Intn(len(chains))]
	if rng.Intn(8) == 0 {
		addr = rng.Uint32()
	}
	return NewPrefix(addr, uint8(rng.Intn(33)))
}

func nestedRuleSet(rng *rand.Rand, n int) []Rule {
	chains := []uint32{rng.Uint32(), rng.Uint32(), rng.Uint32()}
	srcChains := []uint32{rng.Uint32(), rng.Uint32()}
	rules := make([]Rule, n)
	for i := range rules {
		rules[i] = Rule{
			ID:       RuleID(i + 1),
			Match:    Match{Dst: nestedPrefix(rng, chains), Src: nestedPrefix(rng, srcChains)},
			Priority: int32(rng.Intn(4)),
			Action:   Action{Type: ActionForward, Port: i},
		}
		if rng.Intn(3) == 0 {
			rules[i].Match.Src = Prefix{} // FIB-style
		}
	}
	return rules
}

func samePartition(a, b Partition) bool {
	return a.Original == b.Original && a.Overflow == b.Overflow &&
		slices.Equal(a.Parts, b.Parts) && slices.Equal(a.Cause, b.Cause)
}

// checkPartitionEquivalence cuts every rule of the set against all the
// others, through the oracle and through one long-lived Partitioner. Every
// rule is cut twice, the second time after main-table churn (deletes, and
// rules moved to the end of their trie node). Parts (matches and minted IDs),
// Cause order and Overflow must agree throughout, and so must the cause-only
// walk (Causes) wherever the cut keeps something without overflowing. The
// agent's record of the cuts has its own oracle (internal/core).
func checkPartitionEquivalence(t *testing.T, rules []Rule, merge bool, maxRegions int) {
	t.Helper()
	var trie Trie
	for _, r := range rules {
		trie.Insert(r)
	}
	indexed := slices.Clone(rules) // the trie's rules in insertion order
	var pt Partitioner
	mintA, mintB := idMinter(1<<20), idMinter(1<<20)
	cut := func(round int, r Rule) {
		t.Helper()
		wins := func(existing Rule) bool { return existing.Priority >= r.Priority }
		want := oraclePartitionAgainst(r, indexed, wins, mintA, merge, maxRegions)
		got := pt.Partition(r, trie.OverlapCandidates(r.Match, r.Priority), wins, mintB, merge, maxRegions)
		if !samePartition(got, want) {
			t.Fatalf("round %d rule %v merge=%v maxRegions=%d:\n got %+v\nwant %+v", round, r, merge, maxRegions, got, want)
		}
		// A cut that keeps something and does not overflow walks to the
		// end: the cause-only walk records the same causes.
		if !got.Overflow && !got.Redundant() {
			if causes := pt.Causes(r, trie.OverlapCandidates(r.Match, r.Priority), wins); !slices.Equal(causes, want.Cause) {
				t.Fatalf("round %d rule %v: Causes = %v, Partition's cause %v", round, r, causes, want.Cause)
			}
		}
	}
	for _, r := range rules {
		cut(0, r)
	}
	// Churn: drop a third of the main rules and move another few to the end
	// of their trie node (what an in-place Modify does).
	unindex := func(id RuleID) {
		indexed = slices.DeleteFunc(indexed, func(r Rule) bool { return r.ID == id })
	}
	for i, r := range rules {
		switch i % 6 {
		case 0, 3:
			trie.Delete(r.Match.Dst, r.ID)
			unindex(r.ID)
		case 1:
			trie.Delete(r.Match.Dst, r.ID)
			trie.Insert(r)
			unindex(r.ID)
			indexed = append(indexed, r)
		}
	}
	for i := len(rules) - 1; i >= 0; i-- {
		cut(1, rules[i])
	}
}

func TestPartitionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sets := 2000
	if testing.Short() {
		sets = 200
	}
	for i := 0; i < sets; i++ {
		rules := nestedRuleSet(rng, 2+rng.Intn(40))
		checkPartitionEquivalence(t, rules, i%2 == 0, []int{0, 8, 128}[i%3])
	}
}

// FuzzPartitionEquivalence packs the same comparison: 5 bytes per rule as in
// FuzzRuleIndexEquivalence, one flag byte for merge and the region cap.
func FuzzPartitionEquivalence(f *testing.F) {
	f.Add([]byte{0x0a, 8, 1, 0, 0, 0x0a, 16, 2, 0, 0, 0x0a, 24, 0, 0, 0, 0x0a, 12, 0, 0x80, 1}, byte(0))
	f.Add([]byte{0xc0, 0, 0, 0, 0, 0xc0, 32, 3, 0xc0, 32, 0xc0, 31, 3, 0, 0, 0xc1, 8, 1, 0, 4}, byte(3))
	f.Add([]byte{}, byte(5))
	// A wide rule over a winner whose Src contains the wide rule's, with
	// winners and a loser beneath it (the cut-away-prefix skip fires), and
	// the same shape under a winner whose Src does not (it must not), each
	// with and without the merge, at region caps 8 (the wide rule overflows)
	// and 128.
	for _, winnerSrcLen := range []byte{0, 1} {
		shape := []byte{
			0x0a, 12, 1, 0x00, 0, // 10.0.0.0/12 any, prio 1: the wide rule
			0x0a, 20, 3, 0x00, winnerSrcLen, // 10.0.0.0/20, prio 3
			0x0a, 24, 2, 0x01, 0, // 10.0.1.0/24 any, prio 2: winner beneath
			0x0a, 28, 3, 0x02, 8, // 10.0.2.0/28 2.0.0.0/8, prio 3: winner beneath
			0x0a, 24, 0, 0x03, 0, // 10.0.3.0/24 any, prio 0: loser beneath
			0x0a, 20, 2, 0x10, 4, // 10.0.16.0/20 16.0.0.0/4, prio 2: partial winner beside
			0x0a, 24, 3, 0x11, 0, // 10.0.17.0/24 any, prio 3: winner beneath that
		}
		for _, flags := range []byte{2, 3, 4, 5} {
			f.Add(shape, flags)
		}
	}
	// A winner whose Src contains the wide rule's comes second in its node,
	// so the Skip drops a later entry of that node (pruned) as well as the
	// winner beneath it.
	sameNode := []byte{
		0x0a, 12, 1, 0x00, 0, // 10.0.0.0/12 any, prio 1: the wide rule
		0x0a, 20, 3, 0x00, 8, // 10.0.0.0/20 0.0.0.0/8, prio 3: partial winner
		0x0a, 20, 3, 0x00, 0, // 10.0.0.0/20 any, prio 3: takes the node whole
		0x0a, 20, 2, 0x00, 1, // 10.0.0.0/20 0.0.0.0/1, prio 2: later entry, pruned
		0x0a, 24, 3, 0x01, 0, // 10.0.1.0/24 any, prio 3: beneath, pruned
		0x0a, 20, 2, 0x10, 4, // 10.0.16.0/20 16.0.0.0/4, prio 2: partial winner beside
	}
	// Two sibling /21s, each taking its half whole, cover their parent /20
	// (a partial winner) between them; neither prunes the other's subtree.
	siblings := []byte{
		0x0a, 12, 1, 0x00, 0, // 10.0.0.0/12 any, prio 1: the wide rule
		0x0a, 20, 3, 0x00, 8, // 10.0.0.0/20 0.0.0.0/8, prio 3: the parent
		0x0a, 21, 3, 0x00, 0, // 10.0.0.0/21 any, prio 3
		0x0a, 24, 2, 0x01, 0, // 10.0.1.0/24 any, prio 2: beneath the low half
		0x0a, 21, 3, 0x08, 0, // 10.0.8.0/21 any, prio 3
		0x0a, 24, 3, 0x09, 2, // 10.0.9.0/24 8.0.0.0/2, prio 3: beneath the high half
		0x0a, 24, 3, 0x10, 0, // 10.0.16.0/24 any, prio 3: outside the parent
	}
	for _, shape := range [][]byte{sameNode, siblings} {
		for _, flags := range []byte{0, 1, 2} {
			f.Add(shape, flags)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, flags byte) {
		var rules []Rule
		for i := 0; i+5 <= len(data) && len(rules) < 48; i += 5 {
			rules = append(rules, Rule{
				ID:       RuleID(len(rules) + 1),
				Match:    Match{Dst: NewPrefix(uint32(data[i])<<24|uint32(data[i+3])<<8, data[i+1]%33), Src: NewPrefix(uint32(data[i+3])<<24, data[i+4]%33)},
				Priority: int32(data[i+2] % 4),
			})
		}
		checkPartitionEquivalence(t, rules, flags&1 == 0, []int{0, 8, 128}[int(flags>>1)%3])
	})
}

// TestPartitionSkipsCutAwayPrefix pins the skip by its work, not its time:
// once a winner whose Src contains the cut rule's is subtracted, the walk
// skips the winners under its Dst — no subtract pass, and they do not join
// Cause; under a winner whose Src does not contain it every winner is
// subtracted and recorded.
func TestPartitionSkipsCutAwayPrefix(t *testing.T) {
	rule := func(id RuleID, dst, src string, prio int32) Rule {
		return Rule{ID: id, Match: Match{Dst: MustParsePrefix(dst), Src: MustParsePrefix(src)}, Priority: prio}
	}
	wide := rule(1, "10.0.0.0/12", "0.0.0.0/0", 1)
	for _, tc := range []struct {
		winnerSrc string
		passes    int
		cause     []RuleID
	}{
		{"0.0.0.0/0", 3, []RuleID{2, 6, 7}},       // 3 and 4 lie under 2's Dst
		{"0.0.0.0/1", 5, []RuleID{2, 3, 4, 6, 7}}, // every winner cut
	} {
		var trie Trie
		for _, r := range []Rule{
			rule(2, "10.0.0.0/20", tc.winnerSrc, 3),
			rule(3, "10.0.1.0/24", "0.0.0.0/0", 2),
			rule(4, "10.0.2.0/28", "2.0.0.0/8", 3),
			rule(5, "10.0.3.0/24", "0.0.0.0/0", 0), // loses to the wide rule
			rule(6, "10.0.16.0/20", "16.0.0.0/4", 2),
			rule(7, "10.0.17.0/24", "0.0.0.0/0", 3),
		} {
			trie.Insert(r)
		}
		wins := func(existing Rule) bool { return existing.Priority >= wide.Priority }
		var pt Partitioner
		got := pt.Partition(wide, trie.OverlapCandidates(wide.Match, wide.Priority), wins, idMinter(100), true, 0)
		if !slices.Equal(got.Cause, tc.cause) {
			t.Errorf("winner src %s: Cause = %v, want %v", tc.winnerSrc, got.Cause, tc.cause)
		}
		if pt.passes != tc.passes {
			t.Errorf("winner src %s: Partition made %d subtract passes, want %d", tc.winnerSrc, pt.passes, tc.passes)
		}
		if !pt.Uncovered(wide.Match, trie.OverlapCandidates(wide.Match, wide.Priority), wins) || pt.passes != tc.passes {
			t.Errorf("winner src %s: Uncovered made %d subtract passes, want %d", tc.winnerSrc, pt.passes, tc.passes)
		}
	}
}

// TestUncoveredMatchesOracle: Uncovered(region) is "a from-scratch cut of
// region against every winning rule overlapping it leaves something", with
// and without rules that lose, and on a Partitioner whose buffers an earlier
// cut left behind.
func TestUncoveredMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var pt Partitioner
	for i := 0; i < 3000; i++ {
		rules := nestedRuleSet(rng, 2+rng.Intn(40))
		var trie Trie
		for _, r := range rules[1:] {
			trie.Insert(r)
		}
		prio := int32(rng.Intn(4))
		wins := func(existing Rule) bool { return existing.Priority >= prio }
		region := rules[0].Match
		left := []Match{region}
		for _, r := range oracleOverlapping(rules[1:], region) {
			if !wins(r) {
				continue
			}
			var next []Match
			for _, m := range left {
				next = append(next, oracleSubtract(m, r.Match)...)
			}
			left = next
		}
		if got := pt.Uncovered(region, trie.OverlapCandidates(region, prio), wins); got != (len(left) > 0) {
			t.Fatalf("Uncovered(%v) against %v at priority %d = %v, oracle leaves %v", region, rules[1:], prio, got, left)
		}
		if i%2 == 0 {
			pt.Partition(rules[0], trie.OverlapCandidates(region, prio), wins, idMinter(0), true, 0)
		}
	}
}

func TestAppendSubtractMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	chains, srcChains := []uint32{rng.Uint32(), rng.Uint32()}, []uint32{rng.Uint32()}
	buf := make([]Match, 0, 64)
	for i := 0; i < 20000; i++ {
		m := Match{Dst: nestedPrefix(rng, chains), Src: nestedPrefix(rng, srcChains)}
		o := Match{Dst: nestedPrefix(rng, chains), Src: nestedPrefix(rng, srcChains)}
		want := oracleSubtract(m, o)
		if got := m.AppendSubtract(nil, o); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%v.AppendSubtract(nil, %v) = %v, oracle %v", m, o, got, want)
		}
		// Appending keeps what is already in the buffer.
		buf = append(buf[:0], o)
		buf = m.AppendSubtract(buf, o)
		if buf[0] != o || !slices.Equal(buf[1:], want) {
			t.Fatalf("%v.AppendSubtract([%v], %v) = %v, oracle %v", m, o, o, buf, want)
		}
	}
}

func TestMergeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3000; i++ {
		chains, srcChains := []uint32{rng.Uint32(), rng.Uint32()}, []uint32{rng.Uint32(), rng.Uint32()}
		// Prefixes near the bottom of one chain make siblings likely.
		in := make([]Match, rng.Intn(24))
		for j := range in {
			in[j] = Match{Dst: nestedPrefix(rng, chains), Src: nestedPrefix(rng, srcChains)}
			if rng.Intn(2) == 0 {
				in[j].Dst = flipLast(in[j].Dst)
			}
			if rng.Intn(4) == 0 {
				in[j].Src = flipLast(in[j].Src)
			}
		}
		keep := slices.Clone(in)
		want := oracleMergeMatches(in)
		if got := MergeMatches(in); !slices.Equal(got, want) {
			t.Fatalf("MergeMatches(%v) = %v, oracle %v", in, got, want)
		}
		if !slices.Equal(in, keep) {
			t.Fatalf("MergeMatches modified its input")
		}
		var ps []Prefix
		for _, m := range in {
			ps = append(ps, m.Dst)
		}
		if got, want := aggregate(ps), oracleMergePrefixes(ps); !slices.Equal(got, want) {
			t.Fatalf("aggregate(%v) = %v, oracle %v", ps, got, want)
		}
	}
}

// flipLast returns p's sibling (p itself for the /0).
func flipLast(p Prefix) Prefix {
	if p.Len == 0 {
		return p
	}
	return p.Sibling()
}

func TestOverlapIterMatchesOracleOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Rules dropped by a Skip, by where the walk stood: at an ancestor (its
	// later entries), at a node of the subtree (its later entries, and the
	// rules beneath it).
	var ancestor, subtree, sameNode int
	for i := 0; i < 500; i++ {
		// Indexed rules and queries come from the same address chains.
		rules := nestedRuleSet(rng, 20+rng.Intn(60))
		var trie Trie
		indexed := slices.Clone(rules[20:])
		for _, r := range indexed {
			trie.Insert(r)
		}
		check := func() {
			t.Helper()
			checkCompressed(t, &trie)
			for _, q := range rules[:20] {
				want := oracleOverlapping(indexed, q.Match)
				if got := trie.Overlapping(q.Match); !slices.Equal(got, want) {
					t.Fatalf("Overlapping(%v) = %v, oracle %v", q.Match, got, want)
				}
				// Stopping early yields a prefix of the same order.
				it := trie.OverlapCandidates(q.Match, math.MinInt32)
				for k := 0; k < len(want)/2; k++ {
					if r, ok := it.Next(); !ok || r != want[k] {
						t.Fatalf("candidate %d of %v = %v,%v, oracle %v", k, q.Match, r, ok, want[k])
					}
				}
				// Skipping at seeded points drops exactly what Skip's oracle
				// drops.
				every, phase := 1+rng.Intn(4), rng.Intn(4)
				skip := func(k int) bool { return k%every == phase%every }
				wantSkip := oracleSkipping(want, q.Match, skip)
				if got := trie.overlappingSkipping(q.Match, math.MinInt32, skip); !slices.Equal(got, wantSkip) {
					t.Fatalf("Overlapping(%v) skipping every %d from %d = %v, oracle %v", q.Match, every, phase, got, wantSkip)
				}
				for k, r := range wantSkip {
					if !skip(k) {
						continue
					}
					inSubtree := r.Match.Dst.Len >= q.Match.Dst.Len
					for _, later := range want[slices.Index(want, r)+1:] {
						switch d := later.Match.Dst; {
						case d == r.Match.Dst && inSubtree:
							sameNode++
						case d == r.Match.Dst:
							ancestor++
						case inSubtree && r.Match.Dst.Contains(d):
							subtree++
						}
					}
				}
			}
		}
		check()
		// Deletes merge nodes away, and re-inserts split edges again and
		// move a rule to the end of its prefix's insertion order.
		for j := len(indexed) - 1; j >= 0; j -= 2 {
			r := indexed[j]
			trie.Delete(r.Match.Dst, r.ID)
			indexed = slices.Delete(indexed, j, j+1)
			if j%3 == 0 {
				trie.Insert(r)
				indexed = append(indexed, r)
			}
		}
		check()
	}
	if ancestor == 0 || subtree == 0 || sameNode == 0 {
		t.Errorf("rules skipped: %d later entries of an ancestor, %d beneath a subtree node, %d later entries of one; want each > 0",
			ancestor, subtree, sameNode)
	}
}
