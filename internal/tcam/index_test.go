package tcam

import (
	"math/rand"
	"testing"

	"hermes/internal/classifier"
)

// randTableRule makes a rule whose destination prefix is drawn from a small
// pool of bases so nesting and priority ties are frequent.
func randTableRule(rng *rand.Rand, id classifier.RuleID) classifier.Rule {
	plen := uint8(rng.Intn(33))
	var src classifier.Prefix
	if rng.Intn(4) == 0 {
		src = classifier.NewPrefix(rng.Uint32(), uint8(8*rng.Intn(4)))
	}
	return classifier.Rule{
		ID:       id,
		Match:    classifier.Match{Dst: classifier.NewPrefix(rng.Uint32(), plen), Src: src},
		Priority: int32(rng.Intn(6)),
		Action:   classifier.Action{Type: classifier.ActionForward, Port: int(id)},
	}
}

// probeAddr biases half the probes inside an installed rule's region so
// lookups actually hit.
func probeAddr(rng *rand.Rand, rules []classifier.Rule) (dst, src uint32) {
	dst, src = rng.Uint32(), rng.Uint32()
	if len(rules) > 0 && rng.Intn(2) == 0 {
		p := rules[rng.Intn(len(rules))].Match.Dst
		dst = p.Addr | (rng.Uint32() & ^p.Mask())
	}
	return dst, src
}

// checkLookupAgreement compares the indexed and linear paths on many
// packets, requiring the identical rule (not merely the same action).
func checkLookupAgreement(t *testing.T, tab *Table, rng *rand.Rand, probes int) {
	t.Helper()
	rules := tab.Rules()
	for i := 0; i < probes; i++ {
		dst, src := probeAddr(rng, rules)
		want, wok := tab.LookupLinear(dst, src)
		got, gok := tab.Lookup(dst, src)
		if wok != gok || got != want {
			t.Fatalf("lookup(%08x,%08x): indexed %v,%v linear %v,%v (occ %d)",
				dst, src, got, gok, want, wok, tab.Occupancy())
		}
	}
}

// TestTableLookupDifferential drives a table through random mutation
// sequences — inserts with ranked ties, deletes, both modify flavors,
// snapshots (so later steps take the index's copy-on-write path), truncates,
// resets and dropped (faulted) operations — and checks after every step that
// the trie-indexed lookup returns bit-for-bit the rule the linear oracle
// returns, and that the last snapshot still answers as the table did when it
// was taken.
func TestTableLookupDifferential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable("diff", 512, Pica8P3290)
		var installed []classifier.RuleID
		nextID := classifier.RuleID(1)
		drop := false
		tab.SetFaultHook(func(Op, classifier.RuleID) OpFault { return OpFault{Drop: drop} })
		var snap classifier.Snapshot
		var snapRules []classifier.Rule // TCAM order as of snap
		for step := 0; step < 400; step++ {
			drop = rng.Intn(10) == 0
			switch op := rng.Intn(20); {
			case op < 10: // insert
				r := randTableRule(rng, nextID)
				nextID++
				var err error
				if rng.Intn(2) == 0 {
					_, err = tab.Insert(r)
				} else {
					_, err = tab.InsertRanked(r, uint64(rng.Intn(8)))
				}
				if err == nil && !drop {
					installed = append(installed, r.ID)
				}
			case op < 14 && len(installed) > 0: // delete
				i := rng.Intn(len(installed))
				tab.Delete(installed[i])
				if !drop {
					installed = append(installed[:i], installed[i+1:]...)
				}
			case op < 16 && len(installed) > 0: // modify action / priority
				id := installed[rng.Intn(len(installed))]
				if rng.Intn(2) == 0 {
					tab.ModifyAction(id, classifier.Action{Type: classifier.ActionDrop})
				} else {
					tab.ModifyPriority(id, int32(rng.Intn(6)))
				}
			case op < 18: // snapshot: freezes the index under the mutations to come
				snap, snapRules = tab.Snapshot(), tab.Rules()
			case op == 18: // crash truncation
				n := rng.Intn(tab.Occupancy() + 1)
				tab.Truncate(n)
				installed = installed[:0]
				for _, r := range tab.Rules() {
					installed = append(installed, r.ID)
				}
			default: // reset or wipe
				if rng.Intn(2) == 0 {
					tab.Reset()
				} else {
					tab.Wipe()
				}
				installed = installed[:0]
			}
			checkLookupAgreement(t, tab, rng, 30)
			for i := 0; i < 10; i++ {
				dst, src := probeAddr(rng, snapRules)
				want, wok := firstInOrder(snapRules, dst, src)
				if got, ok := snap.Lookup(dst, src); ok != wok || got != want {
					t.Fatalf("seed %d step %d: snapshot lookup(%08x,%08x) = %v,%v, table at snapshot time %v,%v",
						seed, step, dst, src, got, ok, want, wok)
				}
			}
		}
	}
}

// firstInOrder is LookupLinear over a saved Rules() list.
func firstInOrder(rules []classifier.Rule, dst, src uint32) (classifier.Rule, bool) {
	for _, r := range rules {
		if r.Match.MatchesPacket(dst, src) {
			return r, true
		}
	}
	return classifier.Rule{}, false
}

// TestTableGetIndexed checks the ID-indexed Get/Contains/Delete agree with
// a scan of Rules() after heavy churn, including priority rewrites that
// relocate slots.
func TestTableGetIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tab := NewTable("get", 256, Pica8P3290)
	for id := classifier.RuleID(1); id <= 200; id++ {
		if _, err := tab.Insert(randTableRule(rng, id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		id := classifier.RuleID(1 + rng.Intn(200))
		if rng.Intn(3) == 0 {
			tab.ModifyPriority(id, int32(rng.Intn(6)))
		}
		want := classifier.Rule{}
		wok := false
		for _, r := range tab.Rules() {
			if r.ID == id {
				want, wok = r, true
				break
			}
		}
		got, gok := tab.Get(id)
		if gok != wok || got != want {
			t.Fatalf("Get(%d) = %v,%v want %v,%v", id, got, gok, want, wok)
		}
		if tab.Contains(id) != wok {
			t.Fatalf("Contains(%d) = %v want %v", id, !wok, wok)
		}
	}
	// Delete everything via the index; table must drain completely.
	for id := classifier.RuleID(1); id <= 200; id++ {
		if _, ok := tab.Delete(id); !ok {
			t.Fatalf("Delete(%d) missed", id)
		}
	}
	if tab.Occupancy() != 0 {
		t.Fatalf("occupancy %d after draining", tab.Occupancy())
	}
	if _, ok := tab.Lookup(rng.Uint32(), 0); ok {
		t.Fatal("drained table still matches")
	}
}

// TestModifyPriorityRepositions pins the semantics: the rule moves to its
// new first-match position, ties resolve as if freshly inserted, and the
// cost scales with the shift distance.
func TestModifyPriorityRepositions(t *testing.T) {
	tab := NewTable("prio", 16, Pica8P3290)
	mk := func(id classifier.RuleID, prio int32) classifier.Rule {
		return classifier.Rule{
			ID:       id,
			Match:    classifier.DstMatch(classifier.MustParsePrefix("10.0.0.0/8")),
			Priority: prio,
			Action:   classifier.Action{Type: classifier.ActionForward, Port: int(id)},
		}
	}
	for i := classifier.RuleID(1); i <= 4; i++ {
		if _, err := tab.InsertRanked(mk(i, int32(10-i)), 5); err != nil {
			t.Fatal(err)
		}
	}
	// Raise rule 4 (currently last) above everything.
	if _, ok := tab.ModifyPriority(4, 99); !ok {
		t.Fatal("ModifyPriority missed")
	}
	if got, _ := tab.Lookup(0x0A000001, 0); got.ID != 4 {
		t.Fatalf("first match %d, want 4", got.ID)
	}
	if got := tab.Rules()[0]; got.ID != 4 || got.Priority != 99 {
		t.Fatalf("slot 0 = %+v", got)
	}
	// Drop it to the shared priority of rule 2 with the same rank: it must
	// land below rule 2 (fresh-insert tie semantics).
	if _, ok := tab.ModifyPriority(4, 8); !ok {
		t.Fatal("ModifyPriority missed")
	}
	order := tab.Rules()
	if order[0].ID != 1 || order[1].ID != 2 || order[2].ID != 4 || order[3].ID != 3 {
		t.Fatalf("order after demote: %v", []classifier.RuleID{order[0].ID, order[1].ID, order[2].ID, order[3].ID})
	}
	if _, ok := tab.ModifyPriority(99, 1); ok {
		t.Fatal("ModifyPriority of absent ID succeeded")
	}
}

// TestTableGen checks the generation counter: every state change bumps it,
// reads and dropped (faulted) operations leave it alone.
func TestTableGen(t *testing.T) {
	tab := NewTable("gen", 8, Pica8P3290)
	r := classifier.Rule{ID: 1, Match: classifier.DstMatch(classifier.MustParsePrefix("10.0.0.0/8")), Priority: 1}
	g := tab.Gen()
	if _, err := tab.Insert(r); err != nil {
		t.Fatal(err)
	}
	if tab.Gen() == g {
		t.Fatal("Insert did not bump gen")
	}
	g = tab.Gen()
	tab.Lookup(0x0A000001, 0)
	tab.Get(1)
	tab.Rules()
	if tab.Gen() != g {
		t.Fatal("reads bumped gen")
	}
	tab.SetFaultHook(func(Op, classifier.RuleID) OpFault { return OpFault{Drop: true} })
	if _, err := tab.Insert(classifier.Rule{ID: 2, Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if tab.Gen() != g {
		t.Fatal("dropped insert bumped gen")
	}
	tab.SetFaultHook(nil)
	tab.Wipe()
	if tab.Gen() == g {
		t.Fatal("Wipe did not bump gen")
	}
}

// TestLookupIndexedZeroAllocs enforces the zero-allocation fast path at
// paper-scale occupancy.
func TestLookupIndexedZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := fillTable(t, rng, 2048, randTableRule)
	snap := tab.Snapshot()
	allocs := testing.AllocsPerRun(200, func() {
		tab.Lookup(0x0A0B0C0D, 0xC0A80101)
		snap.Lookup(0x0A0B0C0D, 0xC0A80101)
	})
	if allocs != 0 {
		t.Fatalf("indexed Lookup allocates %.1f/op, want 0", allocs)
	}
}

// TestResetKeepsMapCapacity checks Reset does not reallocate bookkeeping:
// after a Reset, refilling to the same occupancy must not grow allocations
// step over step (the map and slices are recycled in place).
func TestResetKeepsMapCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := fillTable(t, rng, 512, randTableRule)
	tab.Reset()
	if tab.Occupancy() != 0 {
		t.Fatalf("occupancy %d after Reset", tab.Occupancy())
	}
	allocs := testing.AllocsPerRun(20, func() {
		tab.Reset()
	})
	if allocs != 0 {
		t.Fatalf("Reset of empty table allocates %.1f/op, want 0", allocs)
	}
}

// FuzzTableLookupEquivalence feeds arbitrary byte strings interpreted as a
// mutation script plus packet probes, asserting indexed == linear on the
// exact rule at every probe, on the live table and on its latest snapshot.
func FuzzTableLookupEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x10, 0x20, 0x03, 0x99}, uint32(0x0A000001), uint32(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252}, uint32(0xC0A80101), uint32(0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, script []byte, dst, src uint32) {
		tab := NewTable("fuzz", 128, Pica8P3290)
		nextID := classifier.RuleID(1)
		var ids []classifier.RuleID
		var snap classifier.Snapshot
		var snapRules []classifier.Rule
		for i := 0; i+4 < len(script); i += 5 {
			op, a, b, c, d := script[i], script[i+1], script[i+2], script[i+3], script[i+4]
			addr := uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
			switch op % 6 {
			case 0, 1:
				r := classifier.Rule{
					ID:       nextID,
					Match:    classifier.Match{Dst: classifier.NewPrefix(addr, uint8(op)%33)},
					Priority: int32(a % 5),
				}
				if _, err := tab.InsertRanked(r, uint64(b%4)); err == nil {
					ids = append(ids, nextID)
				}
				nextID++
			case 2:
				if len(ids) > 0 {
					tab.Delete(ids[int(a)%len(ids)])
				}
			case 3:
				if len(ids) > 0 {
					tab.ModifyPriority(ids[int(a)%len(ids)], int32(b%5))
				}
			case 4:
				// Freeze the index (later ops copy on write) and rewrite an
				// action in place.
				snap, snapRules = tab.Snapshot(), tab.Rules()
				if len(ids) > 0 {
					tab.ModifyAction(ids[int(a)%len(ids)], classifier.Action{Type: classifier.ActionForward, Port: int(b)})
				}
			case 5:
				tab.Truncate(int(a) % (tab.Occupancy() + 1))
			}
			// Probe with the fuzzed packet and with the script-derived
			// address so installed regions get hit.
			for _, pkt := range [...][2]uint32{{dst, src}, {addr, src}} {
				want, wok := tab.LookupLinear(pkt[0], pkt[1])
				got, gok := tab.Lookup(pkt[0], pkt[1])
				if wok != gok || got != want {
					t.Fatalf("lookup(%08x,%08x): indexed %v,%v linear %v,%v",
						pkt[0], pkt[1], got, gok, want, wok)
				}
				want, wok = firstInOrder(snapRules, pkt[0], pkt[1])
				if got, gok := snap.Lookup(pkt[0], pkt[1]); wok != gok || got != want {
					t.Fatalf("snapshot lookup(%08x,%08x): %v,%v, table at snapshot time %v,%v",
						pkt[0], pkt[1], got, gok, want, wok)
				}
			}
		}
	})
}

// fillTable installs exactly occ rules drawn from gen.
func fillTable(tb testing.TB, rng *rand.Rand, occ int,
	gen func(*rand.Rand, classifier.RuleID) classifier.Rule) *Table {
	tb.Helper()
	tab := NewTable("bench", occ, Pica8P3290)
	for id := classifier.RuleID(1); tab.Occupancy() < occ; id++ {
		if _, err := tab.Insert(gen(rng, id)); err != nil {
			tb.Fatal(err)
		}
	}
	return tab
}

// benchRule mirrors the paper-scale tables (BGP study §8.4, CacheFlow-style
// FIBs): destination prefixes /16–/30 weighted toward /24, occasional
// source qualifiers, a handful of priority bands. Unlike randTableRule it
// has no catch-all (/0) entries — production rule tables don't either.
func benchRule(rng *rand.Rand, id classifier.RuleID) classifier.Rule {
	plen := uint8(24)
	switch rng.Intn(4) {
	case 0:
		plen = uint8(16 + rng.Intn(8))
	case 1:
		plen = uint8(25 + rng.Intn(6))
	}
	var src classifier.Prefix
	if rng.Intn(8) == 0 {
		src = classifier.NewPrefix(rng.Uint32(), 16)
	}
	return classifier.Rule{
		ID:       id,
		Match:    classifier.Match{Dst: classifier.NewPrefix(rng.Uint32(), plen), Src: src},
		Priority: int32(rng.Intn(6)),
		Action:   classifier.Action{Type: classifier.ActionForward, Port: int(id)},
	}
}

// BenchmarkTableReset guards the clear-in-place Reset: resetting a full
// table must not allocate (the old implementation reallocated the presence
// map every call). The refill runs under a stopped timer so only Reset's
// own cost and allocations are measured.
func BenchmarkTableReset(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	seed := fillTable(b, rng, 16, benchRule)
	rules := seed.Rules()
	// A pool of tables amortizes the stopped-timer refill so the measured
	// loop is (almost) pure Reset.
	const pool = 256
	tabs := make([]*Table, pool)
	refill := func() {
		for i, tab := range tabs {
			if tab == nil {
				tab = NewTable("reset", 16, Pica8P3290)
				tabs[i] = tab
			}
			for _, r := range rules {
				if _, err := tab.InsertRanked(r, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	refill()
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == pool {
			b.StopTimer()
			refill()
			b.StartTimer()
			next = 0
		}
		tabs[next].Reset()
		next++
	}
}
