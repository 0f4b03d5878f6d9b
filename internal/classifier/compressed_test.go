package classifier

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// microBenchRules is the rule list workload.MicroBench draws from rng with
// MaxPriority 64, the agent benchmarks' setting (that package imports this
// one, so the generator is restated here, draw for draw): fresh /24s taken
// in order from one contiguous pool, and a share of rules nested 1–4 bits
// inside an earlier rule at a higher priority or 1–4 bits above it at a
// lower one.
func microBenchRules(rng *rand.Rand, n int, overlap float64) []Rule {
	const maxPrio = 64
	rules := make([]Rule, 0, n)
	fresh := uint32(0)
	for i := 0; i < n; i++ {
		rng.ExpFloat64() // the arrival time, which the trie does not need
		var p Prefix
		var prio int32
		if len(rules) > 0 && rng.Float64() < overlap {
			base := rules[rng.Intn(len(rules))]
			bp := base.Match.Dst
			switch {
			case bp.Len < 30 && rng.Intn(2) == 0:
				extra := min(uint8(1+rng.Intn(4)), 32-bp.Len)
				p = NewPrefix(bp.Addr|rng.Uint32()&^bp.Mask(), bp.Len+extra)
				prio = base.Priority + 1 + rng.Int31n(maxPrio/4+1)
			case bp.Len > 9:
				p = NewPrefix(bp.Addr, bp.Len-uint8(1+rng.Intn(4)))
				prio = base.Priority - 1 - rng.Int31n(maxPrio/4+1)
			default:
				p, prio = bp, base.Priority+1
			}
			prio = min(max(prio, 1), 3*maxPrio-1)
		} else {
			p = NewPrefix(0x0A000000|fresh<<8, 24)
			fresh++
			prio = maxPrio + rng.Int31n(maxPrio)
		}
		rules = append(rules, Rule{
			ID:       RuleID(i + 1),
			Match:    DstMatch(p),
			Priority: prio,
			Action:   Action{Type: ActionForward, Port: (i + 1) % 48},
		})
	}
	return rules
}

// lookupVisits counts the nodes Snapshot.Lookup walks for dst — those whose
// prefix contains dst, the only ones a binary trie's walk meets — and the
// nodes it loads, which adds the one it may step to last and find not
// matching.
func lookupVisits(s Snapshot, dst uint32) (visits, loads int) {
	for n := s.root; n != nil; n = n.step(dst) {
		loads++
		if dst&n.mask != n.addr {
			break
		}
		visits++
	}
	return visits, loads
}

// lookupChain counts the loads Snapshot.Lookup chains for dst, each waiting
// on the one before: the lines of the nodes it steps to (the last one
// included, found not to match) and of the slots it reads, and apart from
// them the headers of the tables it reads the slots of, one per table.
func lookupChain(s Snapshot, dst uint32) (lines, headers int) {
	for n := s.root; n != nil; {
		lines++
		if dst&n.mask != n.addr {
			break
		}
		if w := n.wide; w != nil {
			lines++
			headers++
			if sl := w.slots[dst>>w.shift&w.idx]; sl.best != &inStride {
				n = sl.next
				continue
			}
		}
		n = n.step(dst)
	}
	return lines, headers
}

// binaryVisits is what a lookup of dst visits in a binary trie over rules,
// which has a node for every prefix of every rule's Dst: the root and one
// node per bit down to the deepest such prefix dst lies in.
func binaryVisits(rules []Rule, dst uint32) int {
	deepest := 0
	for _, r := range rules {
		p := r.Match.Dst
		deepest = max(deepest, min(int(p.Len), bits.LeadingZeros32(dst^p.Addr)))
	}
	return deepest + 1
}

// TestNodeVisitsMicroBenchShaped pins, in counts rather than time, what path
// compression and stride tables buy on the agent benchmarks' rule shape.
// For a packet inside each rule: the nodes a walk of the binary nodes alone
// visits and loads, against the uncompressed binary trie's; and the node
// and slot lines Snapshot.Lookup chains with the stride tables (the tables'
// headers, one more load per table and few enough to stay cached, are
// logged apart). Both loads are given as a plain mean and weighted as
// lookup_churn draws its packets, Zipf s = 1.1 over rule rank. Also the nodes one locate walks (every rule's Get /
// Update / Delete).
func TestNodeVisitsMicroBenchShaped(t *testing.T) {
	rules := microBenchRules(rand.New(rand.NewSource(42)), 2000, 0.3)
	var tr Trie
	for i, r := range rules {
		tr.InsertKeyed(r, Key{Ord: uint64(i)})
	}
	checkCompressed(t, &tr)
	snap := tr.Freeze()
	checkCompressed(t, &tr)
	var lookups, loads, chain, headers, binLookups, locates, binLocates int
	var zipfLoads, zipfChain, zipfHeaders, zipfSum float64
	var path [33]*trieNode
	for rank, r := range rules {
		dst := r.Match.Dst.Addr | 1
		v, l := lookupVisits(snap, dst)
		c, h := lookupChain(snap, dst)
		lookups, loads, chain, headers = lookups+v, loads+l, chain+c, headers+h
		z := math.Pow(float64(rank+1), -1.1)
		zipfLoads, zipfChain, zipfHeaders, zipfSum = zipfLoads+z*float64(l), zipfChain+z*float64(c), zipfHeaders+z*float64(h), zipfSum+z
		binLookups += binaryVisits(rules, dst)
		i, d, _ := tr.locate(Handle{}, r.Match.Dst, r.ID, &path)
		if i < 0 {
			t.Fatalf("locate missed rule %v", r)
		}
		locates += d + 1
		binLocates += int(r.Match.Dst.Len) + 1
	}
	n := float64(len(rules))
	lookup, load, locate := float64(lookups)/n, float64(loads)/n, float64(locates)/n
	chained, zipfChained := float64(chain)/n, zipfChain/zipfSum
	t.Logf("per lookup, binary nodes only: %.2f walked, %.2f loaded, %.2f Zipf-weighted (binary trie %.2f walked)",
		lookup, load, zipfLoads/zipfSum, float64(binLookups)/n)
	t.Logf("per lookup, with stride tables: %.2f chained node and slot lines, %.2f Zipf-weighted, and %.2f / %.2f table headers; per locate %.2f nodes (binary trie %.2f)",
		chained, zipfChained, float64(headers)/n, zipfHeaders/zipfSum, locate, float64(binLocates)/n)
	if load > 13 {
		t.Errorf("a walk of the binary nodes loads %.2f nodes on average, want ≤ 13", load)
	}
	if chained > 7 || zipfChained > 7 {
		t.Errorf("a lookup chains %.2f node and slot lines on average, %.2f Zipf-weighted, want ≤ 7 each", chained, zipfChained)
	}
	if locate > 12.5 {
		t.Errorf("a locate walks %.2f nodes on average, want ≤ 12.5", locate)
	}
}

// TestStrideTablesUnderFrozenChurn runs lookup_churn's write pattern on a
// frozen MicroBench-shaped trie: every rule of the second half deleted and
// put back, with a Freeze before each write as the agent's publishes do.
// The stride tables must agree with the binary nodes throughout, and the
// live trie and a snapshot retained at every 125th write must answer a
// packet inside each rule as the linear oracle over the rules as they were.
func TestStrideTablesUnderFrozenChurn(t *testing.T) {
	rules := microBenchRules(rand.New(rand.NewSource(7)), 2000, 0.3)
	var tr Trie
	model := make([]keyedRule, len(rules))
	for i, r := range rules {
		model[i] = keyedRule{r, Key{Ord: uint64(i)}}
		tr.InsertKeyed(r, model[i].Key)
	}
	agree := func(what string, lookup func(dst, src uint32) (Rule, bool), model []keyedRule) {
		t.Helper()
		for _, r := range rules {
			dst := r.Match.Dst.Addr | 1
			want, wok := firstMatch(model, dst, 0)
			if got, ok := lookup(dst, 0); ok != wok || got != want {
				t.Fatalf("%s: Lookup(%08x) = %v,%v, linear %v,%v", what, dst, got, ok, want, wok)
			}
		}
	}
	half := len(rules) / 2
	snap, snapModel := tr.Freeze(), slices.Clone(model)
	for j := 0; j < 2*half; j++ {
		k := half + j/2
		tr.Freeze()
		if j%2 == 0 {
			if !tr.Delete(model[k].Match.Dst, model[k].ID) {
				t.Fatalf("Delete(%v) missed", model[k].Rule)
			}
			model[k].Ord += uint64(len(rules)) // back in at the end of the order
		} else {
			tr.InsertKeyed(model[k].Rule, model[k].Key)
		}
		if j%125 == 124 {
			checkCompressed(t, &tr)
			current := slices.Clone(model)
			if j%2 == 0 {
				current = slices.Delete(current, k, k+1)
			}
			agree("live trie", tr.Lookup, current)
			agree("live trie's stride tables", Snapshot{tr.root}.Lookup, current)
			agree("retained snapshot", snap.Lookup, snapModel)
			snap, snapModel = tr.Freeze(), current
		}
	}
}

// TestTrieKeyedChurnZeroAllocs: on a never-frozen trie, taking each rule
// out and putting it back keyed allocates nothing. The nodes a delete
// unlinks or merges away go to the freelist, and the insert's split takes
// them back. One pass over every rule is one run, so a single allocation
// anywhere in it fails the test (AllocsPerRun rounds the mean down).
func TestTrieKeyedChurnZeroAllocs(t *testing.T) {
	rules := microBenchRules(rand.New(rand.NewSource(9)), 1000, 0.3)
	var tr Trie
	for i, r := range rules {
		tr.InsertKeyed(r, Key{Ord: uint64(i)})
	}
	ord := uint64(len(rules))
	allocs := testing.AllocsPerRun(1, func() {
		for _, r := range rules {
			if !tr.Delete(r.Match.Dst, r.ID) {
				t.Fatalf("Delete(%v) missed", r)
			}
			tr.InsertKeyed(r, Key{Rank: ord % 3, Ord: ord})
			ord++
		}
	})
	if allocs != 0 {
		t.Fatalf("a pass of keyed delete / insert cycles allocates %.0f times, want 0", allocs)
	}
	checkCompressed(t, &tr)
}

// BenchmarkSnapshotLookup is one Snapshot.Lookup of a packet inside each
// rule of the MicroBench-shaped set in turn.
func BenchmarkSnapshotLookup(b *testing.B) {
	rules := microBenchRules(rand.New(rand.NewSource(42)), 2000, 0.3)
	snap := NewRuleIndex(rules)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Lookup(rules[i%len(rules)].Match.Dst.Addr|1, 0)
	}
}

// BenchmarkSnapshotLookupZipf is Snapshot.Lookup under lookup_churn's
// packet law on a churned node layout: the MicroBench-shaped set inserted
// in shuffled order (keyed by its rank, so every answer is the in-order
// build's), frozen, and probed by packets that pick rule rank r with Zipf
// probability, s = 1.1.
func BenchmarkSnapshotLookupZipf(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	rules := microBenchRules(rng, 2000, 0.3)
	var tr Trie
	for _, i := range rng.Perm(len(rules)) {
		tr.InsertKeyed(rules[i], Key{Rank: uint64(i)})
	}
	snap := tr.Freeze()
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(rules)-1))
	pkts := make([]uint32, 1<<16)
	for i := range pkts {
		pkts[i] = rules[zipf.Uint64()].Match.Dst.Addr | 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Lookup(pkts[i&(len(pkts)-1)], 0)
	}
}

// BenchmarkTrieWriteFrozen is a write beside readers: each iteration
// freezes, deletes a rule of the MicroBench-shaped set's second half,
// freezes again and puts the rule back, so every write copies the path and
// the stride tables it changes, as the agent's writes do between publishes.
func BenchmarkTrieWriteFrozen(b *testing.B) {
	rules := microBenchRules(rand.New(rand.NewSource(42)), 2000, 0.3)
	var tr Trie
	for i, r := range rules {
		tr.InsertKeyed(r, Key{Ord: uint64(i)})
	}
	cold := rules[len(rules)/2:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &cold[i%len(cold)]
		tr.Freeze()
		if !tr.Delete(r.Match.Dst, r.ID) {
			b.Fatalf("Delete(%v) missed", *r)
		}
		tr.Freeze()
		tr.InsertKeyed(*r, Key{Ord: uint64(len(rules) + i)})
	}
}

// BenchmarkTrieLocate is the read-only walk Get, Update and Delete start
// with, to each rule of the MicroBench-shaped set in turn.
func BenchmarkTrieLocate(b *testing.B) {
	rules := microBenchRules(rand.New(rand.NewSource(42)), 2000, 0.3)
	var tr Trie
	for i, r := range rules {
		tr.InsertKeyed(r, Key{Ord: uint64(i)})
	}
	var path [33]*trieNode
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &rules[i%len(rules)]
		if k, _, _ := tr.locate(Handle{}, r.Match.Dst, r.ID, &path); k < 0 {
			b.Fatalf("locate missed rule %v", *r)
		}
	}
}
