package faultinject

import (
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/rulecache"
	"hermes/internal/tcam"
	"hermes/internal/verify"
)

// TestCrashMidRebalanceHalfInstalledCovers is the cache hierarchy's missing
// crash point: the update engine dies inside a rebalance, after a promoted
// rule has landed in hardware but only two of the four covers that must
// shield higher-priority software-only rules from it. The repair contract is
// Reconcile, then a first Tick whose cover hygiene sweeps every rule (the
// deltas collected before the crash describe tables that no longer exist),
// and exact header-space equivalence with the logical table.
func TestCrashMidRebalanceHalfInstalledCovers(t *testing.T) {
	sw := tcam.NewSwitch("rebalance-crash", tcam.Pica8P3290)
	a, err := core.New(sw, core.Config{
		Guarantee:        5 * time.Millisecond,
		DisableRateLimit: true,
		TrackLogical:     true,
		Cache:            &rulecache.Config{Capacity: 2, Policy: rulecache.PolicyLFU, SampleStride: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rule := func(id classifier.RuleID, dst string, prio int32) classifier.Rule {
		return classifier.Rule{
			ID: id, Priority: prio,
			Match:  classifier.DstMatch(classifier.MustParsePrefix(dst)),
			Action: classifier.Action{Type: classifier.ActionForward, Port: int(id)},
		}
	}
	rules := []classifier.Rule{
		rule(1, "11.0.0.0/8", 1), // resident, hot: stays
		rule(2, "12.0.0.0/8", 1), // resident, cold: the rebalance demotes it
		rule(3, "10.0.0.0/8", 1), // software-only, hot: the rebalance promotes it
		// Software-only, cold, and beating rule 3 wherever they overlap it:
		// each needs a cover the moment rule 3 becomes resident.
		rule(4, "10.1.0.0/16", 9),
		rule(5, "10.2.0.0/16", 9),
		rule(6, "10.3.0.0/16", 9),
		rule(7, "10.4.0.0/16", 9),
	}
	now := time.Duration(0)
	for _, r := range rules {
		now += time.Millisecond
		if _, err := a.Insert(now, r); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint32(0); k < 40; k++ {
		a.Lookup(0x0B000000|k, 0) // rule 1
		a.Lookup(0x0AC80000|k, 0) // rule 3, outside rules 4-7
	}

	// Cover entries carry IDs from 1<<41 up (core's coverIDBase).
	isCover := func(id classifier.RuleID) bool { return id >= 1<<41 }
	coverInserts := 0
	crash := NewCrashPoint(func(op tcam.Op, id classifier.RuleID) bool {
		if op == tcam.OpInsert && isCover(id) {
			coverInserts++
		}
		return coverInserts == 3
	})
	for _, tbl := range sw.Slices() {
		tbl.SetFaultHook(crash.Hook())
	}
	now += 10 * time.Millisecond
	a.Tick(now)
	crash.Restart()

	snap := a.CacheStats()
	if snap.Demotions != 1 || snap.Promotions != 3 || snap.CoverInstalls != 4 {
		t.Fatalf("scenario drifted: want rule 2 out, rule 3 in behind 4 covers, got %+v", snap)
	}
	landed := 0
	for _, tbl := range sw.Slices() {
		for _, e := range tbl.Rules() {
			if isCover(e.ID) {
				landed++
			}
		}
	}
	if landed != 2 || crash.Lost() < 2 {
		t.Fatalf("crash point missed: %d of 4 covers landed (want 2), %d ops lost", landed, crash.Lost())
	}
	if r, _ := a.Lookup(0x0A040001, 0); r.ID != 3 {
		t.Fatalf("rule 7's packet resolves to rule %d; the missing cover should expose resident rule 3", r.ID)
	}

	a.MarkDivergent()
	if rep := a.Reconcile(now); rep.Clean() {
		t.Fatalf("reconcile found nothing to repair: %v", rep)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("after reconcile: %v", err)
	}
	assertExact := func(when string) {
		t.Helper()
		ce, err := verify.Agent(a)
		if err != nil {
			t.Fatal(err)
		}
		if ce != nil {
			t.Fatalf("%s: pipeline differs from the logical table: %v", when, ce)
		}
	}
	assertExact("after reconcile")

	// First post-repair tick: nothing moves, yet hygiene visits every
	// software-only rule (2, 4, 5, 6, 7) instead of trusting pre-crash deltas.
	before := a.CacheStats().HygieneVisits
	now += 10 * time.Millisecond
	a.Tick(now)
	if got := a.CacheStats().HygieneVisits - before; got != 5 {
		t.Errorf("first tick after repair visited %d rules for cover hygiene, want the full sweep of 5", got)
	}
	assertExact("after the first post-repair tick")

	// The sweep is one-shot: the next quiet tick follows deltas again.
	before = a.CacheStats().HygieneVisits
	now += 10 * time.Millisecond
	a.Tick(now)
	if got := a.CacheStats().HygieneVisits - before; got != 0 {
		t.Errorf("second quiet tick after repair visited %d rules, want 0", got)
	}
}
