package core

// What a Gate Keeper re-cut costs, as tests: allocations that do not grow
// with the number of main rules a shadow rule is cut against, a redundant
// rule that stays redundant for free, and the shadow-resident index that
// finds the rules to re-cut staying in step with the rule states.

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/obs"
	"hermes/internal/tcam"
)

// shadowIndexErr checks that shadowIndex and shadowIDs hold exactly the rules
// whose place is placeShadow, with current content.
func shadowIndexErr(a *Agent) error {
	var want []classifier.RuleID
	for id, st := range a.rules {
		if st.place != placeShadow {
			continue
		}
		want = append(want, id)
		if got, ok := a.shadowIndex.Get(st.original.Match.Dst, id); !ok || got != st.original {
			return fmt.Errorf("shadow index holds %v,%v for shadow-resident %v", got, ok, st.original)
		}
	}
	slices.Sort(want)
	if !slices.Equal(a.shadowIDs, want) {
		return fmt.Errorf("shadowIDs = %v, shadow-resident rules are %v", a.shadowIDs, want)
	}
	if a.shadowIndex.Size() != len(want) {
		return fmt.Errorf("shadow index holds %d rules, %d are shadow-resident", a.shadowIndex.Size(), len(want))
	}
	return nil
}

// recutAgent routes priorities ≥ 1000 to the main table (unguarded) and
// everything else through the Gate Keeper, with no rate limit and no logical
// reference table, so the only allocations are the write path's own.
func recutAgent(t *testing.T, o *Observer) *Agent {
	t.Helper()
	a, err := New(tcam.NewSwitch("recut", tcam.Pica8P3290), Config{
		Guarantee:                5 * time.Millisecond,
		DisableRateLimit:         true,
		DisableLowPriorityBypass: true,
		Predicate:                func(r classifier.Rule) bool { return r.Priority < 1000 },
		Observer:                 o,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// srcHalf returns r matching only the half of the src space that bit picks.
func srcHalf(r classifier.Rule, bit uint32) classifier.Rule {
	r.Match.Src = classifier.NewPrefix(bit<<31, 1)
	return r
}

func TestRecutAllocs(t *testing.T) {
	const (
		cutID   = 10000
		extraID = 9000
		pairID  = 9001
	)
	extra := dstRule(extraID, "10.200.0.1/32", 1000, 2)
	perCycle := map[int]float64{}
	for _, causes := range []int{1, 64, 512} {
		a := recutAgent(t, nil)
		// A pair of /9s that split the src space, and causes-1 hosts inside
		// them, all win over the /8 below, yet leave it the same single
		// fragment, 10.0.0.0/9. Neither /9's src contains the /8's, so every
		// host is a cause.
		mustInsert(t, a, 0, srcHalf(dstRule(1, "10.128.0.0/9", 1000, 1), 0))
		mustInsert(t, a, 0, srcHalf(dstRule(pairID, "10.128.0.0/9", 1000, 1), 1))
		for i := 2; i <= causes; i++ {
			r := dstRule(classifier.RuleID(i), "10.128.0.0/9", 1000, 1)
			r.Match.Dst = classifier.NewPrefix(0x0A800000|uint32(i), 32)
			mustInsert(t, a, 0, r)
		}
		mustInsert(t, a, 0, extra)
		if res := mustInsert(t, a, 0, dstRule(cutID, "10.0.0.0/8", 10, 3)); res.Path != PathShadow || res.Partitions != 1 {
			t.Fatalf("%d causes: cut rule took %+v", causes, res)
		}
		if st := a.rules[cutID]; st.cut == nil || len(st.cut.cause) != causes+2 || len(st.parts) != 1 {
			t.Fatalf("%d causes: recorded cut %+v, parts %v", causes, st.cut, st.parts)
		}
		// Deleting the unrelated host gives the /8 nothing back — the /9s still
		// cover it — so the /8's fragment is kept and its causes walked
		// afresh; re-installing the host is a main insert that beats the /8
		// and re-cuts it.
		recut, kept := a.Metrics().Repartitions, a.recutsKept.Load()
		perCycle[causes] = testing.AllocsPerRun(50, func() {
			if _, err := a.Delete(0, extraID); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Insert(0, extra); err != nil {
				t.Fatal(err)
			}
		})
		if got := [2]int{a.Metrics().Repartitions - recut, int(a.recutsKept.Load() - kept)}; got != [2]int{51, 51} {
			t.Fatalf("%d causes: %d re-cuts and %d kept in 51 cycles, want one of each per cycle", causes, got[0], got[1])
		}
		if err := shadowIndexErr(a); err != nil {
			t.Fatal(err)
		}
		if err := a.CheckPartitions(); err != nil {
			t.Fatal(err)
		}
	}
	// One re-cut of one part, the main rule's own state, the dependents list
	// — and nothing per cause.
	if perCycle[64] != perCycle[1] || perCycle[512] != perCycle[1] || perCycle[1] > 8 {
		t.Errorf("allocations per delete+insert cycle by number of causes: %v, want equal and ≤ 8", perCycle)
	}
}

func TestKeptRecutAllocatesNothing(t *testing.T) {
	a := recutAgent(t, nil)
	// The /8 is cut by a pair of /9s that split the src space and by a host
	// inside them. Neither /9's src contains the /8's, so the host is a cause
	// of its own; deleting it gives the /8 nothing back.
	mustInsert(t, a, 0, srcHalf(dstRule(1, "10.128.0.0/9", 1000, 1), 0))
	mustInsert(t, a, 0, srcHalf(dstRule(2, "10.128.0.0/9", 1000, 1), 1))
	host := dstRule(4, "10.200.0.1/32", 1000, 2)
	mustInsert(t, a, 0, host)
	mustInsert(t, a, 0, dstRule(3, "10.0.0.0/8", 10, 3))
	st := a.rules[3]
	withHost := []classifier.RuleID{1, 2, host.ID}
	if st.cut == nil || !slices.Equal(st.cut.cause, withHost) {
		t.Fatalf("after the inserts: cut %+v", st.cut)
	}
	if _, err := a.Delete(0, host.ID); err != nil {
		t.Fatal(err)
	}
	if st.cut == nil || !slices.Equal(st.cut.cause, withHost[:2]) || a.recutsKept.Load() != 1 {
		t.Fatalf("after the delete: cut %+v, %d kept", st.cut, a.recutsKept.Load())
	}
	// Each run puts the host back among the causes, so the un-partition
	// checks its region and walks the causes afresh every time.
	stats, parts, recuts := a.shadow.Stats(), a.LastPartID(), a.Metrics().Repartitions
	leaving := []classifier.Rule{host}
	if n := testing.AllocsPerRun(100, func() {
		a.cuts.setCause(st, withHost)
		a.unpartition(0, st, leaving)
	}); n != 0 {
		t.Errorf("a kept un-partition allocates %v times", n)
	}
	if !slices.Equal(st.cut.cause, withHost[:2]) {
		t.Errorf("after the kept un-partitions: causes %v, want %v", st.cut.cause, withHost[:2])
	}
	if a.shadow.Stats() != stats || a.LastPartID() != parts || a.Metrics().Repartitions != recuts {
		t.Errorf("a kept un-partition wrote the shadow table (%+v → %+v), minted part IDs (%d → %d) or re-cut (%d → %d)",
			stats, a.shadow.Stats(), parts, a.LastPartID(), recuts, a.Metrics().Repartitions)
	}
	if got := a.recutsKept.Load(); got != 102 {
		t.Errorf("%d kept un-partitions counted, want 102", got)
	}
	if err := a.CheckPartitions(); err != nil {
		t.Fatal(err)
	}
}

func TestRedundantRecutAllocatesNothing(t *testing.T) {
	a := recutAgent(t, nil)
	// The shallower 10/8 rule only covers part of the src space; the /9
	// behind it contains the shadow rule outright.
	partial := dstRule(1, "10.0.0.0/8", 1000, 1)
	partial.Match.Src = classifier.MustParsePrefix("1.0.0.0/8")
	mustInsert(t, a, 0, partial)
	mustInsert(t, a, 0, dstRule(2, "10.128.0.0/9", 1000, 1))
	if res := mustInsert(t, a, 0, dstRule(3, "10.128.0.0/10", 5, 2)); res.Path != PathRedundant {
		t.Fatalf("rule took %+v, want redundant", res)
	}
	st := a.rules[3]
	if n := testing.AllocsPerRun(100, func() { a.reinstallShadowRule(0, st, false) }); n != 0 {
		t.Errorf("redundant → redundant re-cut allocates %v times", n)
	}
	// Through the API the cause list moves between [partial, /9] and [/9];
	// the cycle must cost what it costs with no shadow rule at all, plus the
	// two lists of shadow rules to visit (the delete's dependents, the
	// insert's repair candidates).
	cycle := func() {
		if _, err := a.Delete(0, partial.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Insert(0, partial); err != nil {
			t.Fatal(err)
		}
	}
	with := testing.AllocsPerRun(100, cycle)
	if st.cut == nil || !slices.Equal(st.cut.cause, []classifier.RuleID{1, 2}) || len(st.parts) != 0 {
		t.Fatalf("after the cycles: cut %+v, parts %v", st.cut, st.parts)
	}
	if _, err := a.Delete(0, 3); err != nil {
		t.Fatal(err)
	}
	if without := testing.AllocsPerRun(100, cycle); with > without+2 {
		t.Errorf("delete+insert of a cause allocates %v with a redundant dependent, %v without", with, without)
	}
}

func TestGateKeeperMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	a := recutAgent(t, NewObserver(reg, 64))
	a.RegisterCacheMetrics(reg)
	// A pair of /9s that split the src space: neither prunes the rules
	// beneath it from the /8's causes.
	mustInsert(t, a, 0, srcHalf(dstRule(1, "10.128.0.0/9", 1000, 1), 0))
	mustInsert(t, a, 0, srcHalf(dstRule(5, "10.128.0.0/9", 1000, 1), 1))
	mustInsert(t, a, 0, dstRule(2, "10.0.0.0/8", 10, 2))
	mustInsert(t, a, 0, dstRule(3, "10.64.0.0/10", 1000, 3))  // re-cuts rule 2 against three causes
	mustInsert(t, a, 0, dstRule(4, "10.200.0.1/32", 1000, 4)) // and four
	// Rule 4 lies inside rules 1 and 5: its delete keeps rule 2's fragments.
	if _, err := a.Delete(0, 4); err != nil {
		t.Fatal(err)
	}
	if got := a.Metrics().Repartitions; got != 2 || a.recutsKept.Load() != 1 {
		t.Fatalf("scenario drifted: %d re-cuts, %d kept; want 2 and 1", got, a.recutsKept.Load())
	}
	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"hermes_gatekeeper_repartitions_total 2\n",
		"hermes_gatekeeper_recuts_kept_total 1\n",
		"hermes_gatekeeper_recut_causes_count 2\n",
		"hermes_gatekeeper_recut_causes_sum 7\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	// The three ways a guarded insert leaves the guaranteed path, one of each
	// and then some: a rule that shatters past MaxPartitions, inserts paced
	// under the Eq.-2 rate until the (never migrated) shadow table is full,
	// and a burst at one instant that drains the token bucket.
	reg = obs.NewRegistry()
	a, err := New(tcam.NewSwitch("diverts", tcam.Pica8P3290), Config{
		Guarantee:                5 * time.Millisecond,
		MaxPartitions:            1,
		DisableLowPriorityBypass: true,
		Predicate:                func(r classifier.Rule) bool { return r.Priority < 1000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	a.RegisterCacheMetrics(reg)
	mustInsert(t, a, 0, dstRule(1, "10.64.0.0/10", 1000, 1))
	mustInsert(t, a, 0, dstRule(2, "10.0.0.0/8", 10, 2)) // a /9 and a /10 survive the cut
	pace := time.Duration(2 / a.MaxRate() * float64(time.Second))
	now := time.Duration(0)
	for _, r := range batchBenchRules(a.ShadowSize()+1, 1000) {
		now += pace
		mustInsert(t, a, now, r)
	}
	for _, r := range batchBenchRules(a.ShadowSize(), 2000) {
		mustInsert(t, a, now, r)
	}
	m := a.Metrics()
	if m.Oversized != 1 || m.ShadowFull == 0 || m.RateLimited == 0 {
		t.Fatalf("scenario drifted: %d oversized, %d shadow-full, %d rate-limited diverts",
			m.Oversized, m.ShadowFull, m.RateLimited)
	}
	sb.Reset()
	if err := obs.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	body = sb.String()
	for reason, n := range map[string]int{"rate": m.RateLimited, "shadow_full": m.ShadowFull, "oversized": m.Oversized} {
		if want := fmt.Sprintf("hermes_gatekeeper_diverts_total{reason=%q} %d\n", reason, n); !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
