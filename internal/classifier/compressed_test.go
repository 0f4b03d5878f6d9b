package classifier

import (
	"math/bits"
	"math/rand"
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
// compression buys on the agent benchmarks' rule shape: the mean number of
// nodes one lookup walks and loads (a packet inside each rule) and one
// locate walks (every rule's Get / Update / Delete), against the binary
// trie's.
func TestNodeVisitsMicroBenchShaped(t *testing.T) {
	rules := microBenchRules(rand.New(rand.NewSource(42)), 2000, 0.3)
	var tr Trie
	for i, r := range rules {
		tr.InsertKeyed(r, Key{Ord: uint64(i)})
	}
	checkCompressed(t, &tr)
	snap := tr.Freeze()
	var lookups, loads, binLookups, locates, binLocates int
	var path [33]*trieNode
	for _, r := range rules {
		dst := r.Match.Dst.Addr | 1
		v, l := lookupVisits(snap, dst)
		lookups, loads = lookups+v, loads+l
		binLookups += binaryVisits(rules, dst)
		i, d, _ := tr.locate(r.Match.Dst, r.ID, &path)
		if i < 0 {
			t.Fatalf("locate missed rule %v", r)
		}
		locates += d + 1
		binLocates += int(r.Match.Dst.Len) + 1
	}
	n := float64(len(rules))
	lookup, load, locate := float64(lookups)/n, float64(loads)/n, float64(locates)/n
	t.Logf("mean nodes per lookup %.2f walked, %.2f loaded (binary trie %.2f); per locate %.2f (binary trie %.2f)",
		lookup, load, float64(binLookups)/n, locate, float64(binLocates)/n)
	if load > 13 {
		t.Errorf("a lookup loads %.2f nodes on average, want ≤ 13", load)
	}
	if locate > 12.5 {
		t.Errorf("a locate walks %.2f nodes on average, want ≤ 12.5", locate)
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
		if k, _, _ := tr.locate(r.Match.Dst, r.ID, &path); k < 0 {
			b.Fatalf("locate missed rule %v", *r)
		}
	}
}
