package rulecache

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"hermes/internal/classifier"
)

func mkRule(id classifier.RuleID, cidr string, prio int32) classifier.Rule {
	return classifier.Rule{
		ID:       id,
		Match:    classifier.DstMatch(classifier.MustParsePrefix(cidr)),
		Priority: prio,
		Action:   classifier.Action{Type: classifier.ActionForward, Port: int(id)},
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		err  bool
	}{
		{"lru", PolicyLRU, false},
		{"LFU", PolicyLFU, false},
		{"cost", 0, true},
		{"cost-aware", 0, true},
		{" costaware ", 0, true},
		{"mru", 0, true},
		{"", 0, true},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParsePolicy(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, p := range []Policy{PolicyLRU, PolicyLFU} {
		back, err := ParsePolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round trip %v: got %v, %v", p, back, err)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Capacity: 4}.WithDefaults()
	if c.MaxMovesPerRebalance != 64 {
		t.Errorf("defaults: got moves=%d", c.MaxMovesPerRebalance)
	}
	if c.Policy != PolicyLFU {
		t.Errorf("a Config naming no policy ranks by %v, want lfu (hits)", c.Policy)
	}
	st := NewSoftTable(SoftProfile{Delete: time.Millisecond})
	if cost := st.Insert(mkRule(1, "10.0.0.0/8", 1), 0); cost != DefaultSoftProfile.Insert {
		t.Errorf("unset Insert not defaulted: %v", cost)
	}
	if cost, _ := st.Delete(1); cost != time.Millisecond {
		t.Errorf("explicit Delete overwritten: %v", cost)
	}
}

// TestSoftTableOracle cross-checks SoftTable.Lookup against a brute-force
// first-match scan over the same rule set through random churn, the
// incrementally maintained ID order (Entries, Rules) against a fresh sort of
// that set, and the latest Snapshot against the scan over the set as it was
// when the snapshot was taken.
func TestSoftTableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st := NewSoftTable(SoftProfile{})

	type entry struct {
		r   classifier.Rule
		seq uint64
	}
	oracle := map[classifier.RuleID]entry{}
	var seq uint64

	var snap classifier.Snapshot
	snapOracle := map[classifier.RuleID]entry{}

	lookupOracle := func(oracle map[classifier.RuleID]entry, dst, src uint32) (classifier.Rule, bool) {
		var (
			best    classifier.Rule
			bestSeq uint64
			found   bool
		)
		for _, e := range oracle {
			if !e.r.Match.MatchesPacket(dst, src) {
				continue
			}
			if !found || e.r.Priority > best.Priority ||
				(e.r.Priority == best.Priority && e.seq < bestSeq) {
				best, bestSeq, found = e.r, e.seq, true
			}
		}
		return best, found
	}

	randRule := func(id classifier.RuleID) classifier.Rule {
		plen := uint8(rng.Intn(17) + 8)
		addr := uint32(0x0a000000) | uint32(rng.Intn(1<<16))<<8
		return classifier.Rule{
			ID:       id,
			Match:    classifier.DstMatch(classifier.NewPrefix(addr, plen)),
			Priority: rng.Int31n(5),
			Action:   classifier.Action{Type: classifier.ActionForward, Port: int(id)},
		}
	}

	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(oracle) == 0: // insert
			id := classifier.RuleID(rng.Intn(60))
			if _, dup := oracle[id]; dup {
				break
			}
			r := randRule(id)
			seq++
			st.Insert(r, seq)
			oracle[id] = entry{r: r, seq: seq}
		case op < 7: // delete
			for id := range oracle {
				if _, ok := st.Delete(id); !ok {
					t.Fatalf("step %d: Delete(%d) missing", step, id)
				}
				delete(oracle, id)
				break
			}
		default: // modify action
			for id, e := range oracle {
				act := classifier.Action{Type: classifier.ActionDrop}
				if _, ok := st.UpdateAction(id, act); !ok {
					t.Fatalf("step %d: UpdateAction(%d) missing", step, id)
				}
				e.r.Action = act
				oracle[id] = e
				break
			}
		}

		if st.Len() != len(oracle) {
			t.Fatalf("step %d: Len = %d, oracle %d", step, st.Len(), len(oracle))
		}
		sorted := make([]entry, 0, len(oracle))
		for _, e := range oracle {
			sorted = append(sorted, e)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].r.ID < sorted[j].r.ID })
		byID := st.Rules()
		for i, e := range st.Entries() {
			if e.Rule != sorted[i].r || e.Seq != sorted[i].seq || byID[i] != sorted[i].r {
				t.Fatalf("step %d: ID order slot %d holds %v / %v, want %v", step, i, e.Rule, byID[i], sorted[i].r)
			}
		}
		if step%7 == 0 {
			snap, snapOracle = st.Snapshot(), maps.Clone(oracle)
		}
		for probe := 0; probe < 5; probe++ {
			dst := uint32(0x0a000000) | uint32(rng.Intn(1<<24))
			got, gok := st.Lookup(dst, 0)
			want, wok := lookupOracle(oracle, dst, 0)
			if gok != wok || (gok && got != want) {
				t.Fatalf("step %d dst %08x: soft (%v,%v) oracle (%v,%v)",
					step, dst, got, gok, want, wok)
			}
			got, gok = snap.Lookup(dst, 0)
			want, wok = lookupOracle(snapOracle, dst, 0)
			if gok != wok || (gok && got != want) {
				t.Fatalf("step %d dst %08x: snapshot (%v,%v) oracle at snapshot time (%v,%v)",
					step, dst, got, gok, want, wok)
			}
		}
	}
}

func TestSoftTableLookupAllocs(t *testing.T) {
	st := NewSoftTable(SoftProfile{})
	for i := 0; i < 64; i++ {
		st.Insert(mkRule(classifier.RuleID(i+1), "10.0.0.0/8", int32(i%4)), uint64(i+1))
	}
	allocs := testing.AllocsPerRun(200, func() {
		st.Lookup(0x0a010203, 0)
	})
	if allocs != 0 {
		t.Errorf("SoftTable.Lookup allocates %.1f/op, want 0", allocs)
	}
}

func TestRecordHitAllocs(t *testing.T) {
	m := NewManager(Config{Capacity: 4, SampleStride: 1})
	m.AdvanceEpoch()
	s := m.Ensure(1)
	m.TakeTouched()
	allocs := testing.AllocsPerRun(200, func() {
		m.SampleHW(0x0a000001, 0, 1)
		m.SampleSoft(0x0a000002, 0, 1)
		m.RecordMiss()
	})
	if allocs != 0 {
		t.Errorf("hit recording allocates %.1f/op, want 0", allocs)
	}
	foldAllocs := testing.AllocsPerRun(20, func() {
		m.FoldSamples(m.EpochNow(), nil)
		m.TakeTouched()
	})
	if foldAllocs != 0 {
		t.Errorf("FoldSamples allocates %.1f/op, want 0", foldAllocs)
	}
	if s.Hits() == 0 || s.LastEpoch() == 0 {
		t.Errorf("stats not recorded: hits=%d epoch=%d", s.Hits(), s.LastEpoch())
	}
}

// TestFoldCreditsEachTierItsEpoch pins how a fold credits the ring: a
// hardware-tier sample counts in the epoch the tick opens, a software-tier
// one in the epoch it was taken in, a rule's last epoch never goes down
// when the two interleave, and each credited record is touched once.
func TestFoldCreditsEachTierItsEpoch(t *testing.T) {
	m := NewManager(Config{Capacity: 4, SampleStride: 1})
	hw, soft, both := m.Ensure(1), m.Ensure(2), m.Ensure(3)
	m.FoldSamples(m.AdvanceEpoch(), nil)
	m.TakeTouched()
	// Epoch 1: the lookups; the tick then folds for epoch 2 and opens it.
	m.SampleHW(0x0a000001, 0, 1)
	m.SampleSoft(0x0a000002, 0, 2)
	m.SampleHW(0x0a000003, 0, 3)
	m.SampleSoft(0x0a000003, 0, 3) // behind rule 3's hardware sample
	m.FoldSamples(m.EpochNow()+1, nil)
	m.AdvanceEpoch()
	for _, c := range []struct {
		s           *RuleStats
		hits, epoch uint64
	}{{hw, 1, 2}, {soft, 1, 1}, {both, 2, 2}} {
		if c.s.Hits() != c.hits || c.s.LastEpoch() != c.epoch {
			t.Errorf("rule %d: %d hits, last epoch %d; want %d, %d", c.s.ID(), c.s.Hits(), c.s.LastEpoch(), c.hits, c.epoch)
		}
	}
	var ids []classifier.RuleID
	for _, s := range m.TakeTouched() {
		ids = append(ids, s.ID())
	}
	if !slices.Equal(ids, []classifier.RuleID{1, 2, 3}) {
		t.Errorf("touched %v, want [1 2 3] once each", ids)
	}
	if snap := m.Snapshot(); snap.HWHits != 2 || snap.SoftHits != 2 {
		t.Errorf("HWHits %d, SoftHits %d; want 2 and 2 (soft samples share the ring, not the hw count)", snap.HWHits, snap.SoftHits)
	}
}

// TestSoftTableLookupTieOrder pins the order Lookup resolves ties in:
// priority first, then the earlier seq, whatever the insertion order.
func TestSoftTableLookupTieOrder(t *testing.T) {
	st := NewSoftTable(SoftProfile{})
	st.Insert(mkRule(1, "10.0.0.0/8", 1), 10)
	st.Insert(mkRule(2, "10.1.0.0/16", 5), 11)
	st.Insert(mkRule(3, "10.1.2.0/24", 5), 9) // same prio as 2, earlier seq
	const pkt = 0x0a010203
	for _, want := range []classifier.RuleID{3, 2, 1} {
		if got, ok := st.Lookup(pkt, 0); !ok || got.ID != want {
			t.Fatalf("Lookup = rule %d,%v, want %d", got.ID, ok, want)
		}
		st.Delete(want)
	}
	// The table does not require unique seqs: removing one of two entries
	// that compare equal must remove that one.
	st.Insert(mkRule(4, "10.1.0.0/16", 5), 9)
	st.Insert(mkRule(5, "10.1.0.0/16", 5), 9)
	st.Delete(4)
	if got, ok := st.Lookup(pkt, 0); !ok || got.ID != 5 || st.Len() != 1 {
		t.Errorf("after deleting one of two equal-ranked rules: Lookup = rule %d,%v, Len %d", got.ID, ok, st.Len())
	}
}

func TestManagerScore(t *testing.T) {
	m := NewManager(Config{Capacity: 4, SampleStride: 1})
	hot, cold := m.Ensure(1), m.Ensure(2)
	for i := 0; i < 100; i++ {
		m.SampleHW(0x0a000001, 0, 1)
		m.FoldSamples(m.AdvanceEpoch(), nil)
	}
	for m.EpochNow() < 199 {
		m.AdvanceEpoch()
	}
	m.SampleHW(0x0a000002, 0, 2) // one recent hit
	m.FoldSamples(m.AdvanceEpoch(), nil)
	if hot.Hits() != 100 || hot.LastEpoch() != 100 || cold.Hits() != 1 || cold.LastEpoch() != 200 {
		t.Fatalf("hot %d hits, last epoch %d; cold %d, %d", hot.Hits(), hot.LastEpoch(), cold.Hits(), cold.LastEpoch())
	}

	lfu := NewManager(Config{Capacity: 4, Policy: PolicyLFU})
	if lfu.Score(hot) <= lfu.Score(cold) {
		t.Error("LFU should prefer the frequently hit rule")
	}
	lru := NewManager(Config{Capacity: 4, Policy: PolicyLRU})
	if lru.Score(cold) <= lru.Score(hot) {
		t.Error("LRU should prefer the recently hit rule")
	}
	for _, m := range []*Manager{lfu, lru} {
		if m.Score(nil) != 0 {
			t.Error("nil stats must score 0")
		}
	}
}

func TestSnapshotRatios(t *testing.T) {
	m := NewManager(Config{Capacity: 4, SampleStride: 1}) // exact counting
	for i := 0; i < 9; i++ {
		m.SampleHW(uint32(i), 0, 1)
	}
	m.SampleSoft(0x0a000001, 0, 1)
	snap := m.Snapshot()
	if snap.Lookups() != 10 {
		t.Fatalf("Lookups = %d, want 10", snap.Lookups())
	}
	if got := snap.HitRatio(); got != 0.9 {
		t.Errorf("HitRatio = %v, want 0.9", got)
	}
	if (Snapshot{}).HitRatio() != 0 {
		t.Error("empty snapshot HitRatio must be 0")
	}
}

func TestSampleStride(t *testing.T) {
	if got := (Config{Capacity: 4, SampleStride: 5}).WithDefaults().SampleStride; got != 8 {
		t.Errorf("SampleStride 5 rounds to %d, want 8", got)
	}
	if got := (Config{Capacity: 4}).WithDefaults().SampleStride; got != 8 {
		t.Errorf("default SampleStride = %d, want 8", got)
	}

	// Exact mode: every lookup is a sample point, and a fold credits every
	// sampled hit to the rule's stats record.
	exact := NewManager(Config{Capacity: 4, SampleStride: 1})
	s := exact.Ensure(1)
	for i := 0; i < 10; i++ {
		exact.SampleHW(0x0a000001, 0, 1)
	}
	if got := exact.Snapshot().HWHits; got != 10 {
		t.Errorf("stride 1: HWHits = %d, want 10", got)
	}
	exact.FoldSamples(exact.AdvanceEpoch(), nil)
	if s.Hits() != 10 {
		t.Errorf("stride 1: folded Hits = %d, want 10", s.Hits())
	}
	// A second fold must not double-count.
	exact.FoldSamples(exact.AdvanceEpoch(), nil)
	if s.Hits() != 10 {
		t.Errorf("re-fold changed Hits to %d, want 10", s.Hits())
	}

	// Sampled mode: across many distinct flows roughly 1 in stride lookups
	// is a sample point, and HWHits reports the scaled estimate. The hash
	// is deterministic, so these counts are stable run to run.
	sampled := NewManager(Config{Capacity: 4, SampleStride: 8})
	ss := sampled.Ensure(1)
	for i := 0; i < 4096; i++ {
		sampled.SampleHW(uint32(0x0a000000+i), uint32(i), 1)
	}
	sampled.FoldSamples(sampled.AdvanceEpoch(), nil)
	points := ss.Hits()
	if points < 256 || points > 1024 {
		t.Errorf("stride 8: %d sample points over 4096 flows, want ≈512", points)
	}
	if got := sampled.Snapshot().HWHits; got != points*8 {
		t.Errorf("stride 8: HWHits = %d, want scaled %d", got, points*8)
	}

	// The sampled flow-subset rotates with the epoch: a single flow must be
	// observed in some epochs and skipped in others.
	rot := NewManager(Config{Capacity: 4, SampleStride: 8})
	rs := rot.Ensure(7)
	for e := 0; e < 256; e++ {
		rot.SampleHW(0x0a000001, 7, 7)
		rot.AdvanceEpoch()
	}
	rot.FoldSamples(rot.EpochNow(), nil)
	if seen := rs.Hits(); seen < 4 || seen > 128 {
		t.Errorf("epoch rotation: flow sampled in %d/256 epochs, want ≈32", seen)
	}

	// An originalOf mapping redirects fragment IDs to their original rule.
	frag := NewManager(Config{Capacity: 4, SampleStride: 1})
	fs := frag.Ensure(3)
	frag.SampleHW(0x0a000001, 0, 1000)
	frag.FoldSamples(frag.AdvanceEpoch(), func(classifier.RuleID) classifier.RuleID { return 3 })
	if fs.Hits() != 1 {
		t.Errorf("originalOf fold: Hits = %d, want 1", fs.Hits())
	}
}
