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

func TestRecutAllocs(t *testing.T) {
	const (
		cutID   = 10000
		extraID = 9000
	)
	extra := dstRule(extraID, "10.200.0.1/32", 1000, 2)
	perCycle := map[int]float64{}
	for _, causes := range []int{1, 64, 512} {
		a := recutAgent(t, nil)
		// One /9 and causes-1 hosts inside it all win over the /8 below, yet
		// leave it the same single fragment, 10.0.0.0/9.
		mustInsert(t, a, 0, dstRule(1, "10.128.0.0/9", 1000, 1))
		for i := 2; i <= causes; i++ {
			r := dstRule(classifier.RuleID(i), "10.128.0.0/9", 1000, 1)
			r.Match.Dst = classifier.NewPrefix(0x0A800000|uint32(i), 32)
			mustInsert(t, a, 0, r)
		}
		mustInsert(t, a, 0, extra)
		if res := mustInsert(t, a, 0, dstRule(cutID, "10.0.0.0/8", 10, 3)); res.Path != PathShadow || res.Partitions != 1 {
			t.Fatalf("%d causes: cut rule took %+v", causes, res)
		}
		if p, ok := a.pmap.Lookup(cutID); !ok || len(p.Cause) != causes+1 {
			t.Fatalf("%d causes: recorded partition %+v", causes, p)
		}
		// Deleting and re-installing the unrelated host re-cuts the /8 twice.
		before := a.Metrics().Repartitions
		perCycle[causes] = testing.AllocsPerRun(50, func() {
			if _, err := a.Delete(0, extraID); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Insert(0, extra); err != nil {
				t.Fatal(err)
			}
		})
		if got := a.Metrics().Repartitions - before; got != 2*51 {
			t.Fatalf("%d causes: %d re-cuts in 51 cycles, want 2 each", causes, got)
		}
		if err := shadowIndexErr(a); err != nil {
			t.Fatal(err)
		}
	}
	// Two re-cuts of one part each, the main rule's own state, the
	// dependents list — and nothing per cause.
	if perCycle[64] != perCycle[1] || perCycle[512] != perCycle[1] || perCycle[1] > 8 {
		t.Errorf("allocations per delete+insert cycle by number of causes: %v, want equal and ≤ 8", perCycle)
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
	if n := testing.AllocsPerRun(100, func() { a.reinstallShadowRule(0, st) }); n != 0 {
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
	if p, ok := a.pmap.Lookup(3); !ok || !slices.Equal(p.Cause, []classifier.RuleID{1, 2}) || len(st.partIDs) != 0 {
		t.Fatalf("after the cycles: partition %+v, parts %v", p, st.partIDs)
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
	mustInsert(t, a, 0, dstRule(1, "10.128.0.0/9", 1000, 1))
	mustInsert(t, a, 0, dstRule(2, "10.0.0.0/8", 10, 2))
	mustInsert(t, a, 0, dstRule(3, "10.64.0.0/10", 1000, 3)) // re-cuts rule 2 against two causes
	if got := a.Metrics().Repartitions; got != 1 {
		t.Fatalf("scenario drifted: %d re-cuts, want 1", got)
	}
	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"hermes_gatekeeper_repartitions_total 1\n",
		"hermes_gatekeeper_recut_causes_count 1\n",
		"hermes_gatekeeper_recut_causes_sum 2\n",
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
