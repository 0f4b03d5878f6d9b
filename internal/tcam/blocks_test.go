package tcam

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hermes/internal/classifier"
)

// denseModel places entries as a physical TCAM does: one sorted array of
// whole rules, shifted for real on every write. It is the oracle for the
// blocked table's order, positions and shift counts, and for the rules the
// table reads back through its index. Every write takes drop, the fault
// hook's verdict: a dropped write charges what it would have but changes
// nothing.
type denseModel struct {
	capacity int
	s        []modelEntry
	nextRank uint64
}

// modelEntry is one dense-model entry: the rule and its tie rank.
type modelEntry struct {
	rule classifier.Rule
	rank uint64
}

// place is the dense binary search: below every (priority, rank) equal.
func (m *denseModel) place(priority int32, rank uint64) int {
	lo, hi := 0, len(m.s)
	for lo < hi {
		mid := (lo + hi) / 2
		if e := m.s[mid]; e.rule.Priority > priority || e.rule.Priority == priority && e.rank <= rank {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (m *denseModel) find(id classifier.RuleID) int {
	for i := range m.s {
		if m.s[i].rule.ID == id {
			return i
		}
	}
	return -1
}

// insert mirrors InsertRanked; ok is false for a full table or a duplicate.
func (m *denseModel) insert(r classifier.Rule, rank uint64, drop bool) (shifts int, ok bool) {
	if len(m.s) >= m.capacity || m.find(r.ID) >= 0 {
		return 0, false
	}
	m.nextRank = max(m.nextRank, rank+1)
	p := m.place(r.Priority, rank)
	shifts = len(m.s) - p
	if !drop {
		m.s = slices.Insert(m.s, p, modelEntry{rule: r, rank: rank})
	}
	return shifts, true
}

// modifyPriority mirrors ModifyPriority: remove, re-place, charge the
// distance moved.
func (m *denseModel) modifyPriority(id classifier.RuleID, priority int32, drop bool) (shifts int, ok bool) {
	i := m.find(id)
	if i < 0 || drop {
		return 0, i >= 0
	}
	s := m.s[i]
	s.rule.Priority = priority
	m.s = slices.Delete(m.s, i, i+1)
	p := m.place(priority, s.rank)
	m.s = slices.Insert(m.s, p, s)
	return max(p-i, i-p), true
}

// checkModel compares tab with its dense model: each slot's rule ID,
// priority and rank in TCAM order (checkRules compares whole rules),
// Occupancy, the InsertPosition of every priority the tests use, Get of ids
// (whole rules), and the block invariant.
func checkModel(tb testing.TB, tab *Table, m *denseModel, ids ...classifier.RuleID) {
	tb.Helper()
	k := 0
	for _, b := range tab.blocks {
		for i := range b {
			if k >= len(m.s) || b[i].id != m.s[k].rule.ID || b[i].priority != m.s[k].rule.Priority || b[i].rank != m.s[k].rank {
				tb.Fatalf("slot %d diverges from the dense model (occupancy %d, model %d)", k, tab.n, len(m.s))
			}
			k++
		}
	}
	if k != len(m.s) || tab.Occupancy() != len(m.s) {
		tb.Fatalf("blocks hold %d, occupancy %d, model %d", k, tab.Occupancy(), len(m.s))
	}
	for p := int32(-1); p <= 8; p++ {
		want := m.place(p, ^uint64(0))
		if pos, shifts := tab.InsertPosition(p); pos != want || shifts != len(m.s)-want {
			tb.Fatalf("InsertPosition(%d) = %d, %d; model %d, %d", p, pos, shifts, want, len(m.s)-want)
		}
	}
	for _, id := range ids {
		r, ok := tab.Get(id)
		i := m.find(id)
		if ok != (i >= 0) || ok && r != m.s[i].rule {
			tb.Fatalf("Get(%d) = %v, %v; model index %d", id, r, ok, i)
		}
	}
	checkBlocks(tb, tab)
}

// checkRules compares the public views with the model: Rules() in TCAM
// order, and Get of every installed rule.
func checkRules(tb testing.TB, tab *Table, m *denseModel) {
	tb.Helper()
	rules := tab.Rules()
	if len(rules) != len(m.s) {
		tb.Fatalf("Rules() holds %d, model %d", len(rules), len(m.s))
	}
	for i, s := range m.s {
		if rules[i] != s.rule {
			tb.Fatalf("Rules()[%d] = %v, model %v", i, rules[i], s.rule)
		}
		if r, ok := tab.Get(s.rule.ID); !ok || r != s.rule {
			tb.Fatalf("Get(%d) = %v, %v; model %v", s.rule.ID, r, ok, s.rule)
		}
	}
}

// checkBlocks holds the block invariant: no block empty or over blockCap,
// any two neighbours together over blockCap/2, the lengths summing to the
// occupancy, hence at most 4n/blockCap + 1 blocks.
func checkBlocks(tb testing.TB, tab *Table) {
	tb.Helper()
	n := 0
	for i, b := range tab.blocks {
		if len(b) == 0 || len(b) > blockCap {
			tb.Fatalf("block %d holds %d entries", i, len(b))
		}
		if i > 0 && len(tab.blocks[i-1])+len(b) <= blockCap/2 {
			tb.Fatalf("blocks %d and %d hold %d + %d entries: unmerged", i-1, i, len(tab.blocks[i-1]), len(b))
		}
		n += len(b)
	}
	if n != tab.n {
		tb.Fatalf("blocks hold %d entries, occupancy says %d", n, tab.n)
	}
	if len(tab.blocks) > 4*n/blockCap+1 {
		tb.Fatalf("%d blocks for %d entries, bound %d", len(tab.blocks), n, 4*n/blockCap+1)
	}
}

// TestTableMatchesDenseModel drives the blocked table and the dense model
// through the same seeded op streams — plain and ranked inserts with tied
// ranks, deletes, both modifies, truncates, resets, wipes, misses and
// fault-dropped ops — alternately filling to capacity (≥ 8 blocks) and
// draining, so blocks split and merge throughout. One op in eight is
// preceded by a Snapshot, so writes meet index nodes a snapshot shares and
// the handles of the rules in them move to the copies. After every op the
// shift count it charged, in Stats() and in its latency, must be the
// model's, checkModel must hold and the latest snapshot must still answer
// as the table did when it was taken; checkRules holds every 64 ops and
// after every op that followed a Snapshot.
func TestTableMatchesDenseModel(t *testing.T) {
	const capacity, steps = 1024, 5000
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable("model", capacity, Pica8P3290)
		m := &denseModel{capacity: capacity}
		drop := false
		tab.SetFaultHook(func(Op, classifier.RuleID) OpFault { return OpFault{Drop: drop} })
		nextID := classifier.RuleID(1)
		maxBlocks := 0
		var snap classifier.Snapshot
		var snapRules []classifier.Rule
		for step := 0; step < steps; step++ {
			froze := rng.Intn(8) == 0
			if froze {
				snap, snapRules = tab.Snapshot(), tab.Rules()
			}
			drop = rng.Intn(10) == 0
			ins, del := 850, 80
			if step%2500 >= 1800 {
				ins, del = 120, 810
			}
			// victim is an installed rule, or now and then an absent one.
			victim := nextID + 1000
			if len(m.s) > 0 && rng.Intn(20) != 0 {
				victim = m.s[rng.Intn(len(m.s))].rule.ID
			}
			before := tab.Stats().Shifts
			want := 0
			ctx := func() string { return fmt.Sprintf("seed %d step %d", seed, step) }
			switch x := rng.Intn(1000); {
			case step%2500 == 2499:
				if rng.Intn(2) == 0 {
					tab.Reset()
				} else {
					tab.Wipe()
				}
				m.s = m.s[:0]
			case step%500 == 499:
				// A tail of up to 200 entries: across block boundaries,
				// or a no-op when n is out of range.
				n := len(m.s) + 1 - rng.Intn(200)
				tab.Truncate(n)
				if n >= 0 && n < len(m.s) {
					m.s = m.s[:n]
				}
			case x < ins:
				r := randTableRule(rng, nextID)
				r.Priority = int32(rng.Intn(8))
				if rng.Intn(30) == 0 {
					r.ID = victim // a duplicate when the victim is installed
				} else {
					nextID++
				}
				var lat time.Duration
				var err error
				var ok bool
				if rng.Intn(2) == 0 {
					rank := m.nextRank
					m.nextRank++
					lat, err = tab.Insert(r)
					want, ok = m.insert(r, rank, drop)
				} else {
					rank := uint64(rng.Intn(16))
					if rng.Intn(2) == 0 {
						rank = m.nextRank + uint64(rng.Intn(3))
					}
					lat, err = tab.InsertRanked(r, rank)
					want, ok = m.insert(r, rank, drop)
				}
				if (err == nil) != ok {
					t.Fatalf("%s: insert err %v, model ok %v", ctx(), err, ok)
				}
				if ok && lat != Pica8P3290.InsertLatency(want) {
					t.Fatalf("%s: insert latency %v, model charges %d shifts", ctx(), lat, want)
				}
				if drop {
					want = 0
				}
			case x < ins+del:
				_, ok := tab.Delete(victim)
				if i := m.find(victim); ok != (i >= 0) {
					t.Fatalf("%s: Delete(%d) = %v, model index %d", ctx(), victim, ok, i)
				} else if ok && !drop {
					m.s = slices.Delete(m.s, i, i+1)
				}
			case x < ins+del+50:
				p := int32(rng.Intn(8))
				lat, ok := tab.ModifyPriority(victim, p)
				shifts, mok := m.modifyPriority(victim, p, drop)
				if ok != mok {
					t.Fatalf("%s: ModifyPriority(%d) = %v, model %v", ctx(), victim, ok, mok)
				}
				if ok && !drop && lat != Pica8P3290.InsertLatency(shifts) {
					t.Fatalf("%s: ModifyPriority latency %v, model charges %d shifts", ctx(), lat, shifts)
				}
				want = shifts
			default:
				a := classifier.Action{Type: classifier.ActionForward, Port: step}
				_, ok := tab.ModifyAction(victim, a)
				if i := m.find(victim); ok != (i >= 0) {
					t.Fatalf("%s: ModifyAction(%d) = %v, model index %d", ctx(), victim, ok, i)
				} else if ok && !drop {
					m.s[i].rule.Action = a
				}
			}
			if got := tab.Stats().Shifts - before; got != want {
				t.Fatalf("%s: op charged %d shifts, model %d", ctx(), got, want)
			}
			checkModel(t, tab, m, victim, nextID-1)
			if froze || step%64 == 0 {
				checkRules(t, tab, m)
			}
			if r, ok := tab.Get(victim); ok {
				addr := r.Match.Dst.Addr | 1
				want, wok := firstInOrder(snapRules, addr, 0)
				if got, gok := snap.Lookup(addr, 0); gok != wok || got != want {
					t.Fatalf("%s: snapshot lookup(%08x) = %v,%v, table at snapshot time %v,%v", ctx(), addr, got, gok, want, wok)
				}
			}
			maxBlocks = max(maxBlocks, len(tab.blocks))
		}
		if maxBlocks < 8 {
			t.Fatalf("seed %d: at most %d blocks, want the stream to span ≥ 8", seed, maxBlocks)
		}
	}
}

// TestDeleteAllMatchesSequentialDelete bulk-deletes lists of 1 to 600
// entries (scattered, with repeats and absent IDs, under fault-hook drops)
// from tables of up to 1 000 entries that refill between rounds, so the one
// pass empties and merges blocks all over the table; checkDeleteAll holds
// each call to sequential Delete and the dense model, and the block
// invariant must hold after it.
func TestDeleteAllMatchesSequentialDelete(t *testing.T) {
	const capacity = 1024
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable("bulk", capacity, Pica8P3290)
		m := &denseModel{capacity: capacity}
		nextID := classifier.RuleID(1)
		for round := 0; round < 40; round++ {
			for fill := rng.Intn(1000); len(m.s) < fill; {
				r := randTableRule(rng, nextID)
				r.Priority = int32(rng.Intn(8))
				rank := uint64(rng.Intn(16))
				if _, err := tab.InsertRanked(r, rank); err != nil {
					t.Fatal(err)
				}
				m.insert(r, rank, false)
				nextID++
			}
			var ids []classifier.RuleID
			for k := 1 + rng.Intn([]int{1, 10, 100, 600}[rng.Intn(4)]); k > 0 && len(m.s) > 0; k-- {
				ids = append(ids, m.s[rng.Intn(len(m.s))].rule.ID)
			}
			if rng.Intn(4) == 0 {
				ids = append(ids, nextID+1000)
			}
			if rng.Intn(8) == 0 {
				for _, s := range m.s {
					ids = append(ids, s.rule.ID)
				}
			}
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			checkDeleteAll(t, tab, m, ids, byte(rng.Intn(256)), rng.Intn(2) == 0)
			checkModel(t, tab, m)
			checkRules(t, tab, m)
		}
	}
}

// TestTableBlocksStayBounded fills 4 096 entries, deletes 15 of every 16 in
// scattered order, then churns around the remaining occupancy; the block
// invariant, and with it the 4n/blockCap + 1 bound, holds after every op.
func TestTableBlocksStayBounded(t *testing.T) {
	const capacity = 4096
	rng := rand.New(rand.NewSource(5))
	tab := fillTable(t, rng, capacity, benchRule)
	checkBlocks(t, tab)
	var doomed, kept []classifier.RuleID
	for _, r := range tab.Rules() {
		if r.ID%16 == 0 {
			kept = append(kept, r.ID)
		} else {
			doomed = append(doomed, r.ID)
		}
	}
	rng.Shuffle(len(doomed), func(i, j int) { doomed[i], doomed[j] = doomed[j], doomed[i] })
	for _, id := range doomed {
		if _, ok := tab.Delete(id); !ok {
			t.Fatalf("Delete(%d) missed", id)
		}
		checkBlocks(t, tab)
	}
	if tab.Occupancy() != capacity/16 {
		t.Fatalf("occupancy %d after thinning, want %d", tab.Occupancy(), capacity/16)
	}
	nextID := classifier.RuleID(capacity + 1)
	for i := 0; i < 20000; i++ {
		if rng.Intn(2) == 0 && len(kept) > 0 {
			j := rng.Intn(len(kept))
			tab.Delete(kept[j])
			kept[j] = kept[len(kept)-1]
			kept = kept[:len(kept)-1]
		} else {
			if _, err := tab.Insert(benchRule(rng, nextID)); err != nil {
				t.Fatal(err)
			}
			kept = append(kept, nextID)
			nextID++
		}
		checkBlocks(t, tab)
	}
}

// TestTableWritesAllocateNothing: at 1 500 entries an insert, a priority
// rewrite and a delete — splitting and merging blocks as they go — reuse
// spare blocks and allocate nothing.
func TestTableWritesAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := NewTable("allocs", 2048, Pica8P3290)
	for id := classifier.RuleID(1); tab.Occupancy() < 1500; id++ {
		if _, err := tab.Insert(benchRule(rng, id)); err != nil {
			t.Fatal(err)
		}
	}
	// The churned rule reuses an installed rule's prefix, so the index
	// keeps its node.
	r := tab.Rules()[700]
	r.ID = 1 << 20
	prio := int32(0)
	allocs := testing.AllocsPerRun(500, func() {
		prio = (prio + 1) % 6
		r.Priority = prio
		if _, err := tab.InsertRanked(r, uint64(prio)); err != nil {
			t.Fatal(err)
		}
		tab.ModifyPriority(r.ID, 5-prio)
		tab.Delete(r.ID)
	})
	if allocs != 0 {
		t.Fatalf("insert / ModifyPriority / delete cycle allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkTableChurn is one insert plus one delete at a steady occupancy:
// the oldest rule leaves and a fresh benchRule lands, so tcam.insert_ns can
// be reproduced per occupancy with `go test -bench TableChurn`.
func BenchmarkTableChurn(b *testing.B) {
	for _, occ := range []int{256, 1500, 4000} {
		b.Run(fmt.Sprint(occ), func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			pool := make([]classifier.Rule, 2*occ)
			for i := range pool {
				pool[i] = benchRule(rng, classifier.RuleID(i+1))
			}
			tab := NewTable("churn", occ+1, Pica8P3290)
			for _, r := range pool[:occ] {
				if _, err := tab.Insert(r); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Delete(pool[i%len(pool)].ID)
				if _, err := tab.Insert(pool[(i+occ)%len(pool)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableModifyAction rewrites the action of a random installed
// rule at a steady occupancy. Plain, the write reads and rewrites the index
// node its handle names, in place; with a Snapshot between writes, every
// write first copies the path down to that node.
func BenchmarkTableModifyAction(b *testing.B) {
	for _, occ := range []int{256, 1500, 4000} {
		for _, snap := range []bool{false, true} {
			b.Run(fmt.Sprintf("%d/snapshot=%v", occ, snap), func(b *testing.B) {
				rng := rand.New(rand.NewSource(17))
				tab := fillTable(b, rng, occ, benchRule)
				ids := make([]classifier.RuleID, 1024)
				for i := range ids {
					ids[i] = classifier.RuleID(1 + rng.Intn(occ))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if snap {
						tab.Snapshot()
					}
					if _, ok := tab.ModifyAction(ids[i%len(ids)], classifier.Action{Type: classifier.ActionForward, Port: i}); !ok {
						b.Fatal("ModifyAction missed")
					}
				}
			})
		}
	}
}
