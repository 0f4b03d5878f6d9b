package classifier

// Oracles for the Gate Keeper cut machinery. The production code streams the
// trie walk, subtracts and merges on reused buffers and re-records a
// partition by diffing its cause list; the functions below are the
// from-scratch forms they replaced — collect every overlapping rule, allocate
// every fragment list, group with maps, remove-then-record — kept here as the
// reference the equivalence tests and the fuzz target compare against.

import (
	"math/rand"
	"slices"
	"testing"
)

// oracleOverlapping is the closure-recursive collect-everything trie walk.
func oracleOverlapping(t *Trie, m Match) []Rule {
	if t.root == nil {
		return nil
	}
	var out []Rule
	collect := func(entries []trieEntry) {
		for _, e := range entries {
			if e.rule.Match.Src.Overlaps(m.Src) {
				out = append(out, e.rule)
			}
		}
	}
	n := t.root
	for depth := uint8(0); depth < m.Dst.Len; depth++ {
		collect(n.entries)
		bit := (m.Dst.Addr >> (31 - depth)) & 1
		n = n.children[bit]
		if n == nil {
			return out
		}
	}
	var walk func(*trieNode)
	walk = func(nd *trieNode) {
		collect(nd.entries)
		if nd.children[0] != nil {
			walk(nd.children[0])
		}
		if nd.children[1] != nil {
			walk(nd.children[1])
		}
	}
	walk(n)
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
	SortPrefixes(out)
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

// oraclePartitionAgainst is Algorithm 1 from scratch.
func oraclePartitionAgainst(newRule Rule, mainIndex *Trie, wins func(existing Rule) bool, nextID func() RuleID, merge bool, maxRegions int) Partition {
	p := Partition{Original: newRule}
	regions := []Match{newRule.Match}
	for _, r := range oracleOverlapping(mainIndex, newRule.Match) {
		if r.ID == newRule.ID || !wins(r) {
			continue
		}
		p.Cause = append(p.Cause, r.ID)
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

// oraclePartitionMap is the remove-then-record map: dependents are kept in
// one ordered list per cause, so re-recording a partition costs
// O(causes × dependents).
type oraclePartitionMap struct {
	byOriginal map[RuleID]*Partition
	byCause    map[RuleID][]RuleID
	byPart     map[RuleID]RuleID
}

func newOraclePartitionMap() *oraclePartitionMap {
	return &oraclePartitionMap{
		byOriginal: make(map[RuleID]*Partition),
		byCause:    make(map[RuleID][]RuleID),
		byPart:     make(map[RuleID]RuleID),
	}
}

func (m *oraclePartitionMap) Record(p Partition) {
	if !p.WasCut() {
		return
	}
	cp := p
	cp.Cause = slices.Clone(p.Cause) // the Partitioner reuses the caller's
	m.byOriginal[p.Original.ID] = &cp
	for _, c := range p.Cause {
		m.byCause[c] = append(m.byCause[c], p.Original.ID)
	}
	for _, part := range p.Parts {
		m.byPart[part.ID] = p.Original.ID
	}
}

func (m *oraclePartitionMap) DependentsOf(mainRule RuleID) []RuleID {
	return append([]RuleID(nil), m.byCause[mainRule]...)
}

func (m *oraclePartitionMap) Remove(original RuleID) {
	p, ok := m.byOriginal[original]
	if !ok {
		return
	}
	delete(m.byOriginal, original)
	for _, c := range p.Cause {
		deps := m.byCause[c]
		for i, d := range deps {
			if d == original {
				m.byCause[c] = append(deps[:i], deps[i+1:]...)
				break
			}
		}
		if len(m.byCause[c]) == 0 {
			delete(m.byCause, c)
		}
	}
	for _, part := range p.Parts {
		delete(m.byPart, part.ID)
	}
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
// others — through the oracle and through one long-lived Partitioner — and
// feeds both results to the oracle map (remove, then record) and to the
// production map (record over the old one). Every rule is cut twice, the
// second time after main-table churn, so re-records with a moved cause list
// are exercised. Parts (matches and minted IDs), Cause order, Overflow and
// the DependentsOf order of every main rule must agree throughout.
func checkPartitionEquivalence(t *testing.T, rules []Rule, merge bool, maxRegions int) {
	t.Helper()
	var trie Trie
	for _, r := range rules {
		trie.Insert(r)
	}
	var pt Partitioner
	pm, om := NewPartitionMap(), newOraclePartitionMap()
	mintA, mintB := idMinter(1<<20), idMinter(1<<20)
	compareMaps := func(when string) {
		t.Helper()
		if pm.Len() != len(om.byOriginal) {
			t.Fatalf("%s: Len %d, oracle %d", when, pm.Len(), len(om.byOriginal))
		}
		for _, r := range rules {
			if got, want := pm.DependentsOf(r.ID), om.DependentsOf(r.ID); !slices.Equal(got, want) {
				t.Fatalf("%s: DependentsOf(%d) = %v, oracle %v", when, r.ID, got, want)
			}
			got, gok := pm.Lookup(r.ID)
			want, wok := om.byOriginal[r.ID]
			if gok != wok || (gok && !samePartition(*got, *want)) {
				t.Fatalf("%s: Lookup(%d) = %v,%v, oracle %v,%v", when, r.ID, got, gok, want, wok)
			}
			if !gok {
				continue
			}
			for _, part := range want.Parts {
				if o, ok := pm.OriginalOf(part.ID); !ok || o != r.ID {
					t.Fatalf("%s: OriginalOf(%d) = %d,%v, want %d", when, part.ID, o, ok, r.ID)
				}
			}
		}
		if len(pm.byPart) != len(om.byPart) {
			t.Fatalf("%s: %d part IDs mapped, oracle %d", when, len(pm.byPart), len(om.byPart))
		}
	}
	cut := func(round int, r Rule) {
		t.Helper()
		wins := func(existing Rule) bool { return existing.Priority >= r.Priority }
		want := oraclePartitionAgainst(r, &trie, wins, mintA, merge, maxRegions)
		got := pt.Partition(r, trie.OverlapCandidates(r.Match), wins, mintB, merge, maxRegions)
		if !samePartition(got, want) {
			t.Fatalf("round %d rule %v merge=%v maxRegions=%d:\n got %+v\nwant %+v", round, r, merge, maxRegions, got, want)
		}
		om.Remove(r.ID)
		if want.Overflow {
			pm.Remove(r.ID)
		} else {
			om.Record(want)
			pm.Record(got)
		}
	}
	for _, r := range rules {
		cut(0, r)
	}
	compareMaps("first cut")
	// Churn: drop a third of the main rules, move another few to the end of
	// their trie node (what an in-place Modify does), forget some records.
	for i, r := range rules {
		switch i % 6 {
		case 0, 3:
			trie.Delete(r.Match.Dst, r.ID)
		case 1:
			trie.Delete(r.Match.Dst, r.ID)
			trie.Insert(r)
		case 2:
			om.Remove(r.ID)
			pm.Remove(r.ID)
		}
	}
	compareMaps("churn")
	for i := len(rules) - 1; i >= 0; i-- {
		cut(1, rules[i])
	}
	compareMaps("second cut")
	for _, r := range rules {
		om.Remove(r.ID)
		pm.Remove(r.ID)
	}
	compareMaps("drained")
	if len(pm.byCause) != 0 || len(pm.byPart) != 0 {
		t.Fatalf("drained map keeps %d causes, %d parts", len(pm.byCause), len(pm.byPart))
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

func TestAppendSubtractMatchesSubtract(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	chains, srcChains := []uint32{rng.Uint32(), rng.Uint32()}, []uint32{rng.Uint32()}
	buf := make([]Match, 0, 64)
	for i := 0; i < 20000; i++ {
		m := Match{Dst: nestedPrefix(rng, chains), Src: nestedPrefix(rng, srcChains)}
		o := Match{Dst: nestedPrefix(rng, chains), Src: nestedPrefix(rng, srcChains)}
		want := oracleSubtract(m, o)
		if got := m.Subtract(o); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%v.Subtract(%v) = %v, oracle %v", m, o, got, want)
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
		if got, want := MergePrefixes(ps), oracleMergePrefixes(ps); !slices.Equal(got, want) {
			t.Fatalf("MergePrefixes(%v) = %v, oracle %v", ps, got, want)
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
	for i := 0; i < 500; i++ {
		// Indexed rules and queries come from the same address chains.
		rules := nestedRuleSet(rng, 20+rng.Intn(60))
		var trie Trie
		for _, r := range rules[20:] {
			trie.Insert(r)
		}
		for _, q := range rules[:20] {
			want := oracleOverlapping(&trie, q.Match)
			if got := trie.Overlapping(q.Match); !slices.Equal(got, want) {
				t.Fatalf("Overlapping(%v) = %v, oracle %v", q.Match, got, want)
			}
			// Stopping early yields a prefix of the same order.
			it := trie.OverlapCandidates(q.Match)
			for k := 0; k < len(want)/2; k++ {
				if r, ok := it.Next(); !ok || r != want[k] {
					t.Fatalf("candidate %d of %v = %v,%v, oracle %v", k, q.Match, r, ok, want[k])
				}
			}
		}
	}
}
