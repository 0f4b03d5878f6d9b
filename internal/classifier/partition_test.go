package classifier

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func idMinter(start RuleID) func() RuleID {
	next := start
	return func() RuleID {
		next++
		return next
	}
}

// lookupShadowFirst emulates Hermes's two-table lookup: shadow first, then
// main on miss. Within a table, highest priority wins; ties go to the
// earlier rule.
func lookupShadowFirst(shadow, main []Rule, dst, src uint32) (Rule, bool) {
	if r, ok := lookupTable(shadow, dst, src); ok {
		return r, true
	}
	return lookupTable(main, dst, src)
}

func lookupTable(rules []Rule, dst, src uint32) (Rule, bool) {
	best := Rule{}
	found := false
	for _, r := range rules {
		if !r.Match.MatchesPacket(dst, src) {
			continue
		}
		if !found || r.Priority > best.Priority {
			best, found = r, true
		}
	}
	return best, found
}

func TestPartitionPaperExample(t *testing.T) {
	// Fig. 4: main table holds the higher-priority /26 -> port 1; the new
	// lower-priority /24 -> port 2 must be partitioned into
	// {192.168.1.64/26, 192.168.1.128/25}.
	var mainIdx Trie
	old := Rule{ID: 1, Match: DstMatch(MustParsePrefix("192.168.1.0/26")),
		Priority: 10, Action: Action{Type: ActionForward, Port: 1}}
	mainIdx.Insert(old)

	newRule := Rule{ID: 2, Match: DstMatch(MustParsePrefix("192.168.1.0/24")),
		Priority: 5, Action: Action{Type: ActionForward, Port: 2}}
	p := PartitionNewRule(newRule, &mainIdx, idMinter(100))

	if p.Redundant() {
		t.Fatal("partial overlap must not be redundant")
	}
	if !p.WasCut() {
		t.Fatal("rule must be cut")
	}
	if len(p.Parts) != 2 {
		t.Fatalf("parts = %v, want 2", p.Parts)
	}
	wantDsts := map[Prefix]bool{
		MustParsePrefix("192.168.1.64/26"):  true,
		MustParsePrefix("192.168.1.128/25"): true,
	}
	for _, part := range p.Parts {
		if !wantDsts[part.Match.Dst] {
			t.Errorf("unexpected part %v", part)
		}
		if part.Action != newRule.Action || part.Priority != newRule.Priority {
			t.Errorf("part %v lost action/priority", part)
		}
	}
	// A lookup for 192.168.1.5 must hit the main-table /26 (port 1), and
	// 192.168.1.200 must hit a shadow partition (port 2) — the Fig. 4c
	// behaviour.
	addr5 := MustParsePrefix("192.168.1.5/32").Addr
	addr200 := MustParsePrefix("192.168.1.200/32").Addr
	if r, ok := lookupShadowFirst(p.Parts, []Rule{old}, addr5, 0); !ok || r.Action.Port != 1 {
		t.Errorf("lookup .5 = %v, want port 1", r)
	}
	if r, ok := lookupShadowFirst(p.Parts, []Rule{old}, addr200, 0); !ok || r.Action.Port != 2 {
		t.Errorf("lookup .200 = %v, want port 2", r)
	}
}

func TestPartitionSubsumedIsRedundant(t *testing.T) {
	// Fig. 5a: a larger, higher-priority main rule wholly subsumes the new
	// rule — nothing to insert.
	var mainIdx Trie
	mainIdx.Insert(Rule{ID: 1, Match: DstMatch(MustParsePrefix("192.168.0.0/16")), Priority: 50})
	p := PartitionNewRule(
		Rule{ID: 2, Match: DstMatch(MustParsePrefix("192.168.1.0/24")), Priority: 5},
		&mainIdx, idMinter(100))
	if !p.Redundant() {
		t.Errorf("subsumed rule must be redundant, got parts %v", p.Parts)
	}
}

func TestPartitionNoOverlapFastPath(t *testing.T) {
	var mainIdx Trie
	mainIdx.Insert(Rule{ID: 1, Match: DstMatch(MustParsePrefix("10.0.0.0/8")), Priority: 50})
	orig := Rule{ID: 2, Match: DstMatch(MustParsePrefix("192.168.1.0/24")), Priority: 5}
	p := PartitionNewRule(orig, &mainIdx, idMinter(100))
	if p.WasCut() || len(p.Parts) != 1 || p.Parts[0].ID != orig.ID {
		t.Errorf("no-overlap partition = %+v, want pass-through", p)
	}
}

func TestPartitionHigherPriorityNewRuleNotCut(t *testing.T) {
	// New rule has higher priority than the overlapping main rule: shadow
	// is consulted first, so the new rule correctly wins — no cut.
	var mainIdx Trie
	mainIdx.Insert(Rule{ID: 1, Match: DstMatch(MustParsePrefix("192.168.1.0/24")), Priority: 5})
	p := PartitionNewRule(
		Rule{ID: 2, Match: DstMatch(MustParsePrefix("192.168.1.0/26")), Priority: 50},
		&mainIdx, idMinter(100))
	if p.WasCut() {
		t.Errorf("higher-priority new rule must not be cut: %+v", p)
	}
}

func TestPartitionEqualPriorityCuts(t *testing.T) {
	// Equal priority: the earlier (main) rule wins in a monolithic TCAM, so
	// the new rule must be cut.
	var mainIdx Trie
	mainIdx.Insert(Rule{ID: 1, Match: DstMatch(MustParsePrefix("192.168.1.0/26")), Priority: 5})
	p := PartitionNewRule(
		Rule{ID: 2, Match: DstMatch(MustParsePrefix("192.168.1.0/24")), Priority: 5},
		&mainIdx, idMinter(100))
	if !p.WasCut() {
		t.Error("equal-priority overlap must cut")
	}
}

func TestPartitionMultipleOverlaps(t *testing.T) {
	// Fig. 5c: several higher-priority rules overlap in several places.
	var mainIdx Trie
	mainIdx.Insert(Rule{ID: 1, Match: DstMatch(MustParsePrefix("192.168.1.0/26")), Priority: 50})
	mainIdx.Insert(Rule{ID: 2, Match: DstMatch(MustParsePrefix("192.168.1.128/26")), Priority: 60})
	newRule := Rule{ID: 3, Match: DstMatch(MustParsePrefix("192.168.1.0/24")), Priority: 5,
		Action: Action{Type: ActionForward, Port: 9}}
	p := PartitionNewRule(newRule, &mainIdx, idMinter(100))
	if len(p.Cause) != 2 {
		t.Fatalf("cause = %v, want both main rules", p.Cause)
	}
	// Remaining region: /24 minus the two /26s = {.64/26, .192/26}, merged.
	wantDsts := map[Prefix]bool{
		MustParsePrefix("192.168.1.64/26"):  true,
		MustParsePrefix("192.168.1.192/26"): true,
	}
	if len(p.Parts) != 2 {
		t.Fatalf("parts = %v", p.Parts)
	}
	for _, part := range p.Parts {
		if !wantDsts[part.Match.Dst] {
			t.Errorf("unexpected part %v", part)
		}
	}
}

// TestPartitionEquivalenceProperty is the central correctness property of
// §4: for random main tables and a random new rule, a shadow-first lookup
// over (partitions, main) must agree with a monolithic-table lookup over
// (main + original rule) on every packet.
func TestPartitionEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var mainIdx Trie
		n := r.Intn(30)
		mainRules := make([]Rule, 0, n)
		for i := 0; i < n; i++ {
			rule := Rule{
				ID:       RuleID(i + 1),
				Match:    randomMatch(r),
				Priority: int32(r.Intn(100)),
				Action:   Action{Type: ActionForward, Port: i + 1},
			}
			mainRules = append(mainRules, rule)
			mainIdx.Insert(rule)
		}
		newRule := Rule{
			ID:       RuleID(n + 1),
			Match:    randomMatch(r),
			Priority: int32(r.Intn(100)),
			Action:   Action{Type: ActionForward, Port: 999},
		}
		p := PartitionNewRule(newRule, &mainIdx, idMinter(1000))

		// Monolithic reference: main rules were inserted before the new
		// rule, so on equal priority they win. lookupTable prefers the
		// earlier rule on ties, so listing mainRules first is correct.
		mono := append(append([]Rule(nil), mainRules...), newRule)

		for k := 0; k < 200; k++ {
			var dst, src uint32
			if r.Intn(2) == 0 {
				dst = addrInside(r, newRule.Match.Dst)
				src = addrInside(r, newRule.Match.Src)
			} else if n > 0 {
				pick := mainRules[r.Intn(n)]
				dst = addrInside(r, pick.Match.Dst)
				src = addrInside(r, pick.Match.Src)
			} else {
				dst, src = r.Uint32(), r.Uint32()
			}
			want, wok := lookupTable(mono, dst, src)
			got, gok := lookupShadowFirst(p.Parts, mainRules, dst, src)
			if wok != gok {
				t.Logf("seed=%d pkt=(%08x,%08x): found %v want %v", seed, dst, src, gok, wok)
				return false
			}
			if wok && got.Action != want.Action {
				t.Logf("seed=%d pkt=(%08x,%08x): action %v want %v (newRule=%v)",
					seed, dst, src, got.Action, want.Action, newRule)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// BenchmarkPartitionWide is a wide insert's cut: a /12 at priority 1 over
// the MicroBench-shaped main table's rules inside it, every one of which
// beats it, at the agent's working-set cap (8 × 16 fragments). causes/op is
// the size of the cut's record: the winners it used, not every one it met.
// dst-only keeps the rules' /0 srcs, so the first winner, a /13, takes its
// half of the cut whole and the walk skips every rule under it; partial-src
// narrows every rule's src to 0.0.0.0/1, which the skip cannot take whole,
// so the cut walks and records all ~2 000 winners.
func BenchmarkPartitionWide(b *testing.B) {
	wide := Rule{ID: 1 << 20, Match: DstMatch(NewPrefix(0x0A000000, 12)), Priority: 1}
	for _, c := range []struct {
		name string
		src  Prefix
	}{
		{"dst-only", Prefix{}},
		{"partial-src", NewPrefix(0, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var main Trie
			for i, r := range microBenchRules(rand.New(rand.NewSource(42)), 2000, 0.5) {
				if r.Match.Dst.Len > wide.Match.Dst.Len {
					r.Match.Src = c.src
					main.InsertKeyed(r, Key{Ord: uint64(i)})
				}
			}
			wins := func(existing Rule) bool { return existing.Priority >= wide.Priority }
			var pt Partitioner
			var p Partition
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p = pt.Partition(wide, main.OverlapCandidates(wide.Match, wide.Priority), wins, idMinter(0), true, 128)
			}
			if p.Overflow {
				b.Fatal("the cut overflowed its fragment cap: it measures the escape hatch, not a cut")
			}
			b.ReportMetric(float64(len(p.Cause)), "causes/op")
		})
	}
}
