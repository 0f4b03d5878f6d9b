package tcam

import (
	"math/rand"
	"slices"
	"testing"
	"time"

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
// sequences — inserts with ranked ties, deletes, action modifies,
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
			case op < 16 && len(installed) > 0: // modify action
				id := installed[rng.Intn(len(installed))]
				tab.ModifyAction(id, classifier.Action{Type: classifier.ActionDrop})
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
// a scan of Rules() after heavy churn, including re-inserts at a new
// priority that relocate slots.
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
		if r, ok := tab.Get(id); ok && rng.Intn(3) == 0 {
			tab.Delete(id)
			r.Priority = int32(rng.Intn(6))
			if _, err := tab.Insert(r); err != nil {
				t.Fatal(err)
			}
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
// after a Reset, refilling to the same occupancy must not allocate (the map,
// the blocks and the match index's nodes are recycled in place), as the Rule
// Manager's reset-and-refill migrations rely on.
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

	rules := fillTable(t, rng, 64, benchRule).Rules()
	small := NewTable("refill", 64, Pica8P3290)
	refill := func() {
		small.Reset()
		for _, r := range rules {
			if _, err := small.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The recycled index nodes take different roles from cycle to cycle, so
	// the first few refills still grow some node's entries to the size its
	// new role needs; after that every cycle reuses what is there.
	for range 16 {
		refill()
	}
	if allocs := testing.AllocsPerRun(20, refill); allocs != 0 {
		t.Fatalf("Reset and refill of a %d-rule table allocates %.1f/op, want 0", len(rules), allocs)
	}
}

// FuzzTableLookupEquivalence feeds arbitrary byte strings interpreted as a
// mutation script plus packet probes. The table is first filled with
// 3·blockCap + 16 rules derived from the script, so the script's inserts
// split blocks, its deletes (which pick their victim by TCAM position) merge
// them and its truncates cut across them. After every op the table must
// agree with the dense model (order, shift count, insert positions, Get),
// and indexed == linear on the exact rule at every probe, on the live table
// and on its latest snapshot. A delete op with the high bit set is a
// DeleteAll, held to sequential Delete by checkDeleteAll.
func FuzzTableLookupEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x10, 0x20, 0x03, 0x99}, uint32(0x0A000001), uint32(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252}, uint32(0xC0A80101), uint32(0xFFFFFFFF))
	// Bulk deletes: a strided list with drops, absent and repeated IDs; then
	// one that empties the table under a retained snapshot.
	f.Add([]byte{0x80, 0x10, 0x0f, 0x05, 0x0a, 0x86, 0x00, 0x00, 0x00, 0x04}, uint32(0x0A000001), uint32(0))
	f.Fuzz(func(t *testing.T, script []byte, dst, src uint32) {
		tab := NewTable("fuzz", 4*blockCap, Pica8P3290)
		m := &denseModel{capacity: tab.Capacity()}
		nextID := classifier.RuleID(1)
		insert := func(r classifier.Rule, rank uint64) {
			before := tab.Stats().Shifts
			_, err := tab.InsertRanked(r, rank)
			shifts, ok := m.insert(r, rank, false)
			if (err == nil) != ok || tab.Stats().Shifts-before != shifts {
				t.Fatalf("insert %v rank %d: err %v, %d shifts; model ok %v, %d shifts",
					r, rank, err, tab.Stats().Shifts-before, ok, shifts)
			}
		}
		for k := 0; k < 3*blockCap+16; k++ {
			x := uint32(k)
			if len(script) > 0 {
				x += uint32(script[k%len(script)]) << 8
			}
			insert(classifier.Rule{
				ID:       nextID,
				Match:    classifier.Match{Dst: classifier.NewPrefix(x*0x9E3779B1, uint8(8+x%25))},
				Priority: int32(x % 5),
			}, uint64(x%4))
			nextID++
		}
		checkModel(t, tab, m)
		checkRules(t, tab, m)
		var snap classifier.Snapshot
		var snapRules []classifier.Rule
		for i := 0; i+4 < len(script); i += 5 {
			op, a, b, c, d := script[i], script[i+1], script[i+2], script[i+3], script[i+4]
			addr := uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
			// at is the rule a/256 of the way down the table.
			var at classifier.RuleID
			if len(m.s) > 0 {
				at = m.s[int(a)*len(m.s)>>8].rule.ID
			}
			before := tab.Stats().Shifts
			want := 0
			switch op % 6 {
			case 0, 1, 3:
				insert(classifier.Rule{
					ID:       nextID,
					Match:    classifier.Match{Dst: classifier.NewPrefix(addr, uint8(op)%33)},
					Priority: int32(a % 5),
				}, uint64(b%4))
				nextID++
				before = tab.Stats().Shifts
			case 2:
				if op >= 0x80 {
					// Freeze, then bulk-delete (absent and repeated IDs,
					// fault-hook drops) against sequential Delete.
					snap, snapRules = tab.Snapshot(), tab.Rules()
					checkDeleteAll(t, tab, m, deleteAllIDs(m, nextID, a, b, c, d), c, d&8 != 0)
					break
				}
				if _, ok := tab.Delete(at); ok {
					i := m.find(at)
					m.s = slices.Delete(m.s, i, i+1)
				}
			case 4:
				// Freeze the index (later ops copy on write) and rewrite an
				// action in place.
				snap, snapRules = tab.Snapshot(), tab.Rules()
				a := classifier.Action{Type: classifier.ActionForward, Port: int(b)}
				if _, ok := tab.ModifyAction(at, a); ok {
					m.s[m.find(at)].rule.Action = a
				}
			case 5:
				n := int(a) % (tab.Occupancy() + 1)
				tab.Truncate(n)
				m.s = m.s[:min(n, len(m.s))]
			}
			if got := tab.Stats().Shifts - before; got != want {
				t.Fatalf("op %d charged %d shifts, model %d", op%6, got, want)
			}
			checkModel(t, tab, m, at, nextID-1)
			checkRules(t, tab, m)
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

// deleteAllIDs derives a DeleteAll list from one script op: b%16+1 IDs
// strided through the model from position a (so it may repeat), with d&2 an
// absent ID and a repeat of the first, with d&4 every installed ID in reverse
// TCAM order as well.
func deleteAllIDs(m *denseModel, absent classifier.RuleID, a, b, c, d byte) []classifier.RuleID {
	var ids []classifier.RuleID
	if n := len(m.s); n > 0 {
		for i := 0; i <= int(b%16); i++ {
			ids = append(ids, m.s[(int(a)+i*int(c|1))%n].rule.ID)
		}
	}
	if d&2 != 0 {
		ids = append(ids, absent)
		if len(ids) > 1 {
			ids = append(ids, ids[0])
		}
	}
	if d&4 != 0 {
		for i := len(m.s) - 1; i >= 0; i-- {
			ids = append(ids, m.s[i].rule.ID)
		}
	}
	return ids
}

// checkDeleteAll runs tab.DeleteAll(ids) and the same ids through
// sequential Delete on a twin holding tab's entries, with one fault hook
// verdict per call on each: with drops set, call k is dropped when bit k%8 of
// mask is. The two must see the same hook calls and agree on the latency,
// the count, the Stats and DroppedOps deltas and the resulting rules, and
// the dense model, applying the same verdicts, must agree with tab.
func checkDeleteAll(t *testing.T, tab *Table, m *denseModel, ids []classifier.RuleID, mask byte, drops bool) {
	t.Helper()
	twin := NewTable("twin", tab.Capacity(), tab.Profile())
	for _, b := range tab.blocks {
		for _, s := range b {
			r, _ := tab.Get(s.id)
			if _, err := twin.InsertRanked(r, s.rank); err != nil {
				t.Fatal(err)
			}
		}
	}
	type call struct {
		op Op
		id classifier.RuleID
	}
	hook := func(calls *[]call) OpFaultHook {
		return func(op Op, id classifier.RuleID) OpFault {
			k := len(*calls)
			*calls = append(*calls, call{op, id})
			return OpFault{Drop: drops && mask>>(k%8)&1 != 0, Extra: time.Duration(k)}
		}
	}
	var bulkCalls, seqCalls []call
	tab.SetFaultHook(hook(&bulkCalls))
	twin.SetFaultHook(hook(&seqCalls))
	defer tab.SetFaultHook(nil)

	stats, dropped := tab.Stats(), tab.DroppedOps()
	twinStats, twinDropped := twin.Stats(), twin.DroppedOps()
	total, n := tab.DeleteAll(ids)
	var seqTotal time.Duration
	seqN := 0
	for _, id := range ids {
		if d, ok := twin.Delete(id); ok {
			seqTotal += d
			seqN++
		}
	}
	if !slices.Equal(bulkCalls, seqCalls) {
		t.Fatalf("DeleteAll(%v) made hook calls %v, sequential Delete %v", ids, bulkCalls, seqCalls)
	}
	if total != seqTotal || n != seqN {
		t.Fatalf("DeleteAll(%v) = %v, %d; sequential Delete %v, %d", ids, total, n, seqTotal, seqN)
	}
	sub := func(a, b TableStats) TableStats {
		return TableStats{a.Inserts - b.Inserts, a.Deletes - b.Deletes, a.Mods - b.Mods, a.Shifts - b.Shifts}
	}
	if got, want := sub(tab.Stats(), stats), sub(twin.Stats(), twinStats); got != want {
		t.Fatalf("DeleteAll moved Stats by %+v, sequential Delete by %+v", got, want)
	}
	if got, want := tab.DroppedOps()-dropped, twin.DroppedOps()-twinDropped; got != want {
		t.Fatalf("DeleteAll dropped %d ops, sequential Delete %d", got, want)
	}
	if got, want := tab.Rules(), twin.Rules(); !slices.Equal(got, want) {
		t.Fatalf("after DeleteAll(%v): %v, after sequential Delete %v", ids, got, want)
	}
	k := 0
	for _, id := range ids {
		i := m.find(id)
		if i < 0 {
			continue
		}
		if !drops || mask>>(k%8)&1 == 0 {
			m.s = slices.Delete(m.s, i, i+1)
		}
		k++
	}
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
