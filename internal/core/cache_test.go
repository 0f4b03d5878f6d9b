package core

// Tests for the flow-driven rule caching hierarchy (DESIGN.md §16): basic
// two-tier behavior, dependency-safe eviction via covers, policy-driven
// rebalancing, and — the load-bearing ones — differential equivalence
// against the single-table oracle under churn, crash-restarts, and
// interrupted migrations.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/obs"
	"hermes/internal/rulecache"
)

func newCachedAgent(t *testing.T, capacity int, policy rulecache.Policy) *Agent {
	t.Helper()
	// SampleStride 1 records every hit, so unit tests can assert exact
	// per-rule counts; the churn/differential tests build their own configs
	// and keep the default sampled stride.
	return newTestAgent(t, Config{
		DisableRateLimit: true,
		Cache:            &rulecache.Config{Capacity: capacity, Policy: policy, SampleStride: 1},
	})
}

func TestCachedBasic(t *testing.T) {
	a := newCachedAgent(t, 4, rulecache.PolicyLFU)
	if !a.Cached() {
		t.Fatal("Cached() must be true")
	}
	now := time.Duration(0)
	for i := 1; i <= 3; i++ {
		r := dstRule(classifier.RuleID(i), "10.0.0.0/8", int32(i), i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<24, 8))
		res, err := a.Insert(now, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != PathSoft {
			t.Errorf("rule %d path = %v, want soft", i, res.Path)
		}
		if !res.Guaranteed {
			t.Errorf("rule %d not guaranteed", i)
		}
		now += time.Millisecond
	}
	if got := a.CacheResident(); got != 3 {
		t.Errorf("residents = %d, want 3 (capacity 4)", got)
	}
	if got := len(a.Rules()); got != 3 {
		t.Errorf("Rules() = %d entries, want 3", got)
	}
	// All three should answer from hardware.
	for i := 1; i <= 3; i++ {
		r, ok := a.Lookup(uint32(i)<<24|1, 0)
		if !ok || r.Action.Port != i {
			t.Errorf("lookup rule %d: got %v %v", i, r, ok)
		}
	}
	snap := a.CacheStats()
	if snap.HWHits != 3 || snap.SoftHits != 0 {
		t.Errorf("stats = hw %d soft %d, want 3/0", snap.HWHits, snap.SoftHits)
	}
	if a.RuleHits(1) != 1 {
		t.Errorf("RuleHits(1) = %d, want 1", a.RuleHits(1))
	}
	// Miss: no rule matches.
	if _, ok := a.Lookup(0xF0000001, 0); ok {
		t.Error("unexpected match")
	}
	if a.CacheStats().Misses != 1 {
		t.Errorf("misses = %d", a.CacheStats().Misses)
	}
	// Modify action in place.
	mod := dstRule(1, "10.0.0.0/8", 1, 99)
	mod.Match = classifier.DstMatch(classifier.NewPrefix(1<<24, 8))
	if _, err := a.Modify(now, mod); err != nil {
		t.Fatal(err)
	}
	if r, ok := a.Lookup(1<<24|1, 0); !ok || r.Action.Port != 99 {
		t.Errorf("post-modify lookup: %v %v", r, ok)
	}
	// Delete.
	if _, err := a.Delete(now, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Lookup(2<<24|1, 0); ok {
		t.Error("deleted rule still matches")
	}
	if got := a.CacheResident(); got != 2 {
		t.Errorf("residents after delete = %d, want 2", got)
	}
	// Duplicate / unknown errors.
	dup := dstRule(1, "10.0.0.0/8", 1, 1)
	if _, err := a.Insert(now, dup); err == nil {
		t.Error("duplicate insert must fail")
	}
	if _, err := a.Delete(now, 77); err == nil {
		t.Error("unknown delete must fail")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Errorf("consistency: %v", err)
	}
}

// TestCachedEvictionCovers drives the ruleset past capacity so that
// software-only rules which beat residents must be shielded by covers, and
// verifies the two-tier pipeline still answers like the oracle.
func TestCachedEvictionCovers(t *testing.T) {
	a := newCachedAgent(t, 2, rulecache.PolicyLFU)
	now := time.Duration(0)
	// Two broad low-priority residents fill the cache.
	for i := 1; i <= 2; i++ {
		r := dstRule(classifier.RuleID(i), "10.0.0.0/8", 1, i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<24, 8))
		if _, err := a.Insert(now, r); err != nil {
			t.Fatal(err)
		}
		now += time.Millisecond
	}
	// A higher-priority narrow rule inside resident 1's region stays
	// software-only (capacity reached) and must be shielded.
	hot := classifier.Rule{
		ID:       3,
		Match:    classifier.DstMatch(classifier.NewPrefix(1<<24|0x00010000, 16)),
		Priority: 9,
		Action:   classifier.Action{Type: classifier.ActionForward, Port: 30},
	}
	if _, err := a.Insert(now, hot); err != nil {
		t.Fatal(err)
	}
	if got := a.CacheResident(); got != 2 {
		t.Fatalf("residents = %d, want 2", got)
	}
	snap := a.CacheStats()
	if snap.CoverInstalls == 0 {
		t.Fatalf("expected cover installs, got %+v", snap)
	}
	// A packet in the shielded region must punt to software and win with
	// the high-priority rule, not the resident underneath it.
	r, ok := a.Lookup(1<<24|0x00010005, 0)
	if !ok || r.ID != 3 {
		t.Fatalf("shielded lookup: got %v %v, want rule 3", r, ok)
	}
	if got := a.CacheStats().SoftHits; got != 1 {
		t.Errorf("soft hits = %d, want 1", got)
	}
	// Packets outside the shield still answer from hardware.
	if r, ok := a.Lookup(2<<24|1, 0); !ok || r.ID != 2 {
		t.Errorf("unshielded lookup: %v %v", r, ok)
	}
	// Deleting the shielded rule removes its covers.
	if _, err := a.Delete(now, 3); err != nil {
		t.Fatal(err)
	}
	after := a.CacheStats()
	if after.CoverRemovals != snap.CoverInstalls {
		t.Errorf("cover removals = %d, want %d", after.CoverRemovals, snap.CoverInstalls)
	}
	if r, ok := a.Lookup(1<<24|0x00010005, 0); !ok || r.ID != 1 {
		t.Errorf("post-delete lookup: %v %v, want rule 1", r, ok)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Errorf("consistency: %v", err)
	}
}

// TestCachedRebalancePromotesHot checks that the periodic rebalance pass
// swaps cold residents for the rules the traffic actually hits.
func TestCachedRebalancePromotesHot(t *testing.T) {
	a := newCachedAgent(t, 2, rulecache.PolicyLFU)
	now := time.Duration(0)
	for i := 1; i <= 4; i++ {
		r := dstRule(classifier.RuleID(i), "10.0.0.0/8", 1, i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<24, 8))
		if _, err := a.Insert(now, r); err != nil {
			t.Fatal(err)
		}
		now += time.Millisecond
	}
	// Rules 1,2 are resident (first come). Hammer 3 and 4.
	for k := 0; k < 200; k++ {
		a.Lookup(3<<24|uint32(k), 0)
		a.Lookup(4<<24|uint32(k), 0)
	}
	before := a.CacheStats()
	if before.SoftHits == 0 {
		t.Fatal("expected soft hits while 3,4 are software-only")
	}
	now += 10 * time.Millisecond
	a.Rebalance(now)
	if got := a.CacheResident(); got != 2 {
		t.Fatalf("residents after rebalance = %d, want 2", got)
	}
	if a.CacheStats().Promotions < 4 { // 2 initial + 2 rebalance
		t.Errorf("promotions = %d, want ≥ 4", a.CacheStats().Promotions)
	}
	if a.CacheStats().Demotions < 2 {
		t.Errorf("demotions = %d, want ≥ 2", a.CacheStats().Demotions)
	}
	// Now 3,4 answer from hardware.
	mark := a.CacheStats().HWHits
	a.Lookup(3<<24|7, 0)
	a.Lookup(4<<24|7, 0)
	if got := a.CacheStats().HWHits - mark; got != 2 {
		t.Errorf("post-rebalance HW hits = %d, want 2", got)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Errorf("consistency: %v", err)
	}
}

// runCachedSeq replays a fixed-seed churn workload (inserts, deletes,
// modifies, ticks, crash-restarts, interrupted migrations) on a cached
// agent and verifies after every step that the two-tier pipeline answers
// exactly like the reference monolithic table.
func runCachedSeq(t *testing.T, seed int64, policy rulecache.Policy, verbose bool) bool {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	a := newTestAgent(t, Config{
		DisableRateLimit: true,
		Cache:            &rulecache.Config{Capacity: 8, Policy: policy, MaxCoverParts: 4},
	})
	// Cut off roughly one migration in three at a random step, exactly as a
	// crash mid-migration would.
	interrupt := rand.New(rand.NewSource(seed + 1))
	var cut MigrationStep
	a.SetMigrationInterrupt(func(step MigrationStep, _ time.Duration) bool {
		return interrupt.Intn(12) == 0 && step == cut
	})
	now := time.Duration(0)
	live := []classifier.RuleID{}
	nextID := classifier.RuleID(1)

	check := func(op int) bool {
		rr := rand.New(rand.NewSource(seed*1000 + int64(op)))
		logical := a.LogicalRules()
		for k := 0; k < 150; k++ {
			var dst uint32
			if len(logical) > 0 && rr.Intn(4) != 0 {
				pick := logical[rr.Intn(len(logical))].Match.Dst
				dst = pick.Addr | (rr.Uint32() & ^pick.Mask())
			} else {
				dst = rr.Uint32()
			}
			want, wok := a.LogicalLookup(dst, 0)
			got, gok := a.Lookup(dst, 0)
			if wok != gok || (wok && (got.Action != want.Action || got.Priority != want.Priority)) {
				if verbose {
					t.Logf("op %d: pkt %08x got %v(%v) want %v(%v)", op, dst, got, gok, want, wok)
					t.Logf("residents=%d stats=%+v", a.CacheResident(), a.CacheStats())
					t.Logf("shadow: %v", a.shadow.Rules())
					t.Logf("main: %v", a.main.Rules())
					t.Logf("soft: %v", a.soft.Rules())
				}
				return false
			}
		}
		return true
	}

	for op := 0; op < 140; op++ {
		now += time.Duration(r.Intn(8)+1) * time.Millisecond
		switch x := r.Intn(20); {
		case x < 9: // insert
			rule := classifier.Rule{
				ID:       nextID,
				Match:    classifier.DstMatch(classifier.NewPrefix(0xC0A80000|(r.Uint32()&0xFFFF), uint8(16+r.Intn(17)))),
				Priority: int32(r.Intn(20)),
				Action:   classifier.Action{Type: classifier.ActionForward, Port: int(nextID)},
			}
			if _, err := a.Insert(now, rule); err != nil {
				t.Logf("seed %d op %d insert: %v", seed, op, err)
				return false
			}
			live = append(live, nextID)
			nextID++
		case x < 12 && len(live) > 0: // delete
			i := r.Intn(len(live))
			if _, err := a.Delete(now, live[i]); err != nil {
				t.Logf("seed %d op %d delete: %v", seed, op, err)
				return false
			}
			live = append(live[:i], live[i+1:]...)
		case x < 14 && len(live) > 0: // modify (action or priority)
			id := live[r.Intn(len(live))]
			orig, _, ok := a.soft.Get(id)
			if !ok {
				t.Logf("seed %d op %d: live rule %d missing from soft tier", seed, op, id)
				return false
			}
			mod := orig
			if r.Intn(2) == 0 {
				mod.Action = classifier.Action{Type: classifier.ActionForward, Port: int(id) + 1000}
			} else {
				mod.Priority = int32(r.Intn(20))
			}
			if _, err := a.Modify(now, mod); err != nil {
				t.Logf("seed %d op %d modify: %v", seed, op, err)
				return false
			}
		case x < 17: // tick: rebalance + maybe migration
			cut = MigrationStep(interrupt.Intn(4))
			a.Tick(now)
		case x < 18: // lookup burst to skew popularity
			for k := 0; k < 30; k++ {
				a.Lookup(0xC0A80000|r.Uint32()&0xFFFF, 0)
			}
		default: // crash-restart + reconcile
			a.CrashRestart(now)
			a.Reconcile(now)
			if err := a.CheckConsistency(); err != nil {
				t.Logf("seed %d op %d post-reconcile: %v", seed, op, err)
				return false
			}
		}
		// A cut migration marks the agent divergent; the controller's
		// protocol is to Reconcile before trusting lookups again.
		if a.NeedsReconcile() {
			a.Reconcile(now)
			if err := a.CheckConsistency(); err != nil {
				t.Logf("seed %d op %d reconcile after interrupt: %v", seed, op, err)
				return false
			}
		}
		if !check(op) {
			return false
		}
	}
	// Drain any in-flight migration, then final full check.
	now += time.Second
	a.Advance(now)
	a.Tick(now)
	if a.NeedsReconcile() {
		a.Reconcile(now)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Logf("seed %d final consistency: %v", seed, err)
		return false
	}
	return check(9999)
}

func TestCachedDifferentialChurn(t *testing.T) {
	policies := []rulecache.Policy{rulecache.PolicyLRU, rulecache.PolicyLFU, rulecache.PolicyCostAware}
	for seed := int64(0); seed < 30; seed++ {
		policy := policies[seed%3]
		if !runCachedSeq(t, seed, policy, false) {
			t.Logf("seed %d (%v) fails; replaying verbosely", seed, policy)
			runCachedSeq(t, seed, policy, true)
			t.FailNow()
		}
	}
}

// --- rebalance oracles -----------------------------------------------------
//
// The production pass ranks only residents plus challengers and revisits
// only rules overlapping a resident-set change. The two functions below are
// the passes it replaced — rank everything, sweep everything — kept as the
// reference it is checked against.

// oracleWant ranks every rule with a full sort (score descending, ID
// ascending) and returns the top Capacity, best first.
func oracleWant(a *Agent) []classifier.RuleID {
	rules := a.soft.Rules()
	type cand struct {
		id    classifier.RuleID
		score float64
	}
	cands := make([]cand, 0, len(rules))
	for _, r := range rules {
		slots := 1
		if st, resident := a.rules[r.ID]; resident {
			if n := len(st.partIDs); n > 0 {
				slots = n
			}
		} else if n := len(a.covers[r.ID]); n > 0 {
			slots = n
		}
		cands = append(cands, cand{id: r.ID, score: a.cmgr.Score(a.cmgr.Stats(r.ID), slots)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].id < cands[j].id
	})
	var want []classifier.RuleID
	for i := 0; i < len(cands) && i < a.cacheCfg.Capacity; i++ {
		want = append(want, cands[i].id)
	}
	return want
}

// oracleResidents applies oracleWant to the agent's current resident set
// the way the full-sort pass did — unwanted residents out in ID order,
// wanted rules in best-first, both under the move budget — and returns the
// resident set (ascending) the next rebalance must produce. It assumes the
// hardware has room, so no move fails or cascades.
func oracleResidents(a *Agent) []classifier.RuleID {
	want := oracleWant(a)
	wanted := make(map[classifier.RuleID]bool, len(want))
	for _, id := range want {
		wanted[id] = true
	}
	resident := make(map[classifier.RuleID]bool)
	moves := 0
	for _, r := range a.soft.Rules() {
		if _, ok := a.rules[r.ID]; !ok {
			continue
		}
		if !wanted[r.ID] && moves < a.cacheCfg.MaxMovesPerRebalance {
			moves++
			continue
		}
		resident[r.ID] = true
	}
	for _, id := range want {
		if moves >= a.cacheCfg.MaxMovesPerRebalance {
			break
		}
		if resident[id] {
			continue
		}
		if len(resident) >= a.cacheCfg.Capacity {
			break
		}
		resident[id] = true
		moves++
	}
	out := make([]classifier.RuleID, 0, len(resident))
	for id := range resident {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// oracleShield is the full cover sweep as a checker: it visits every
// software-only rule and returns the ones whose shield the sweep would have
// had to install or remove. After a rebalance it must find nothing.
func oracleShield(a *Agent) []classifier.RuleID {
	var stale []classifier.RuleID
	for _, r := range a.soft.Rules() {
		if _, resident := a.rules[r.ID]; resident {
			continue
		}
		_, seq, _ := a.soft.Get(r.ID)
		if a.coversNeeded(r, seq) != (len(a.covers[r.ID]) > 0) {
			stale = append(stale, r.ID)
		}
	}
	return stale
}

// runRebalanceOracleSeq drives one cached agent through rule churn, Zipf
// lookups and cold scans, and checks every tick against the oracles.
func runRebalanceOracleSeq(t *testing.T, seed int64, policy rulecache.Policy, maxMoves int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := newTestAgent(t, Config{
		DisableRateLimit: true,
		Cache: &rulecache.Config{
			Capacity: 12, Policy: policy, MaxMovesPerRebalance: maxMoves, SampleStride: 2,
		},
	})
	now := time.Duration(0)
	var live []classifier.Rule
	nextID := classifier.RuleID(1)
	insert := func() {
		r := classifier.Rule{
			ID:       nextID,
			Match:    classifier.DstMatch(classifier.NewPrefix(0xC0A80000|(rng.Uint32()&0xFFFF), uint8(16+rng.Intn(13)))),
			Priority: int32(rng.Intn(12)),
			Action:   classifier.Action{Type: classifier.ActionForward, Port: int(nextID)},
		}
		nextID++
		if _, err := a.Insert(now, r); err != nil {
			t.Fatalf("seed %d insert %d: %v", seed, r.ID, err)
		}
		live = append(live, r)
	}
	packetFor := func(r classifier.Rule) uint32 {
		return r.Match.Dst.Addr | (rng.Uint32() & ^r.Match.Dst.Mask())
	}
	for len(live) < 90 {
		now += time.Millisecond
		insert()
	}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(live)-1))
	scan := 0
	for tick := 0; tick < 60; tick++ {
		for k := 0; k < 400; k++ {
			a.Lookup(packetFor(live[int(zipf.Uint64())%len(live)]), 0)
		}
		if tick%5 == 4 { // cold scan: every rule once, in order
			for k := 0; k < 40; k++ {
				a.Lookup(packetFor(live[(scan+k)%len(live)]), 0)
			}
			scan += 40
		}
		for k := rng.Intn(3); k > 0; k-- { // churn: some of it hits residents
			now += time.Millisecond
			i := rng.Intn(len(live))
			if _, err := a.Delete(now, live[i].ID); err != nil {
				t.Fatalf("seed %d delete %d: %v", seed, live[i].ID, err)
			}
			live = append(live[:i], live[i+1:]...)
			insert()
		}

		now += 10 * time.Millisecond
		// Bring the agent to exactly the state the tick will rank: finished
		// migrations applied, samples folded into the epoch the tick opens.
		a.Advance(now)
		a.cmgr.FoldSamples(a.cmgr.EpochNow()+1, a.originalOf)
		want := oracleResidents(a)
		if end := a.Tick(now); end != 0 {
			a.Advance(end)
		}
		if !slices.Equal(a.residents, want) {
			t.Fatalf("seed %d %v moves=%d tick %d: residents %v, full-sort oracle %v",
				seed, policy, maxMoves, tick, a.residents, want)
		}
		if stale := oracleShield(a); len(stale) > 0 {
			t.Fatalf("seed %d %v moves=%d tick %d: full sweep would still fix the shields of %v",
				seed, policy, maxMoves, tick, stale)
		}
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	snap := a.CacheStats()
	if snap.Demotions == 0 || snap.CoverInstalls == 0 || snap.CoverRemovals == 0 {
		t.Fatalf("seed %d %v: workload never reached the hard path: %+v", seed, policy, snap)
	}
}

// TestRebalanceMatchesFullSortOracle is the differential test for threshold
// ranking and delta-driven hygiene: after every tick the resident set is the
// one the full sort would have chosen and the full sweep has nothing left to
// do, for every policy, with the move budget both binding and not.
func TestRebalanceMatchesFullSortOracle(t *testing.T) {
	for _, policy := range []rulecache.Policy{rulecache.PolicyLRU, rulecache.PolicyLFU, rulecache.PolicyCostAware} {
		for _, maxMoves := range []int{3, 1 << 20} {
			for seed := int64(0); seed < 20; seed++ {
				runRebalanceOracleSeq(t, seed, policy, maxMoves)
			}
		}
	}
}

// TestRebalanceQuietTickAllocs pins the cost model: a rebalance in which no
// rule crosses the capacity cut ranks no challenger, visits no rule for
// hygiene, rebuilds no snapshot tier and allocates nothing.
func TestRebalanceQuietTickAllocs(t *testing.T) {
	a := newTestAgent(t, Config{
		DisableRateLimit: true,
		Cache:            &rulecache.Config{Capacity: 8, Policy: rulecache.PolicyLFU, SampleStride: 1},
	})
	now := time.Duration(0)
	for i := 1; i <= 64; i++ {
		now += time.Millisecond
		r := classifier.Rule{
			ID:       classifier.RuleID(i),
			Match:    classifier.DstMatch(classifier.NewPrefix(uint32(i)<<16|0x0A000000, 24)),
			Priority: int32(i % 5),
		}
		if _, err := a.Insert(now, r); err != nil {
			t.Fatal(err)
		}
	}
	// Heat rules 33..40 so the first rebalance swaps the whole resident set,
	// then let it settle.
	for i := 33; i <= 40; i++ {
		for k := 0; k < 50; k++ {
			a.Lookup(uint32(i)<<16|0x0A000001, 0)
		}
	}
	for k := 0; k < 3; k++ {
		now += 10 * time.Millisecond
		a.Rebalance(now)
	}
	if got := a.CacheStats().Demotions; got != 8 {
		t.Fatalf("demotions = %d, want 8 (the warm-up must have moved rules)", got)
	}
	a.Lookup(0x0A000001|33<<16, 0) // publish a snapshot for the pass to keep current
	before, tiers := a.CacheStats(), a.ViewTierRebuilds()
	allocs := testing.AllocsPerRun(50, func() {
		now += 10 * time.Millisecond
		a.Rebalance(now)
	})
	if allocs != 0 {
		t.Errorf("quiet rebalance allocates %.1f times, want 0", allocs)
	}
	after := a.CacheStats()
	if after.RebalanceChallengers != before.RebalanceChallengers || after.HygieneVisits != before.HygieneVisits {
		t.Errorf("quiet rebalances ranked %d challengers and visited %d rules, want 0 and 0",
			after.RebalanceChallengers-before.RebalanceChallengers, after.HygieneVisits-before.HygieneVisits)
	}
	if got := a.ViewTierRebuilds(); got != tiers {
		t.Errorf("quiet rebalances rebuilt snapshot tiers: %+v -> %+v", tiers, got)
	}
}

// TestRebalanceSharesUnchangedTiers checks the publish side: after a
// rebalance that moves rules, the next lookup's snapshot freezes the
// hardware-tier indexes anew and shares the software-tier index and hit map
// with the previous snapshot (freezing an unmoved tier again would make its
// next write copy for nothing).
func TestRebalanceSharesUnchangedTiers(t *testing.T) {
	a := newCachedAgent(t, 2, rulecache.PolicyLFU)
	now := time.Duration(0)
	for i := 1; i <= 4; i++ {
		r := dstRule(classifier.RuleID(i), "10.0.0.0/8", 1, i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<24, 8))
		mustInsert(t, a, now, r)
		now += time.Millisecond
	}
	for k := 0; k < 20; k++ { // also publishes the first snapshot
		a.Lookup(3<<24|uint32(k), 0)
		a.Lookup(4<<24|uint32(k), 0)
	}
	v1 := a.view.Load()
	if v1 == nil {
		t.Fatal("no snapshot published")
	}
	t1, p1 := a.ViewTierRebuilds(), a.ViewPublishes()
	a.Rebalance(now + 10*time.Millisecond)
	if a.view.Load() != v1 {
		t.Fatal("the rebalance published a snapshot: only stale readers publish")
	}
	if r, ok := a.Lookup(3<<24|7, 0); !ok || r.ID != 3 {
		t.Errorf("post-rebalance lookup: %v %v", r, ok)
	}
	v2 := a.view.Load()
	if v2 == v1 || a.ViewPublishes() != p1+1 {
		t.Fatalf("rebalance moved rules, yet the next lookup published %d snapshots", a.ViewPublishes()-p1)
	}
	if v2.soft != v1.soft || v2.logical != v1.logical {
		t.Error("software and logical tiers did not move, yet were frozen anew")
	}
	if len(v1.hits) == 0 || reflect.ValueOf(v2.hits).Pointer() != reflect.ValueOf(v1.hits).Pointer() {
		t.Error("the software tier did not move, yet the hit map was rebuilt")
	}
	if v2.main == v1.main && v2.shadow == v1.shadow {
		t.Error("hardware tiers moved, yet both indexes were shared")
	}
	t2 := a.ViewTierRebuilds()
	if t2.Soft != t1.Soft || t2.Logical != t1.Logical {
		t.Errorf("tier rebuild counters: %+v -> %+v, soft and logical must not move", t1, t2)
	}
	if t2.Shadow+t2.Main == t1.Shadow+t1.Main {
		t.Errorf("tier rebuild counters: %+v -> %+v, a hardware tier must have been frozen anew", t1, t2)
	}
}

// TestCacheMetricsExposition scrapes a cached agent's registry: the
// O(changed) counters are there and carry what the agent counted, and the
// modeled lookup-latency gauges (constants echoed as measurements) are gone.
func TestCacheMetricsExposition(t *testing.T) {
	a := newCachedAgent(t, 2, rulecache.PolicyLFU)
	reg := obs.NewRegistry()
	a.RegisterCacheMetrics(reg)
	now := time.Duration(0)
	for i := 1; i <= 4; i++ {
		r := dstRule(classifier.RuleID(i), "10.0.0.0/8", 1, i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<24, 8))
		mustInsert(t, a, now, r)
		now += time.Millisecond
	}
	for k := 0; k < 20; k++ {
		a.Lookup(3<<24|uint32(k), 0)
	}
	a.Rebalance(now + 10*time.Millisecond)

	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	snap, tiers := a.CacheStats(), a.ViewTierRebuilds()
	if snap.RebalanceChallengers == 0 || snap.HygieneVisits == 0 || tiers.Soft == 0 || a.ViewPublishes() == 0 {
		t.Fatalf("scenario drifted: the rebalance must rank a challenger and revisit a rule, a lookup must publish: %+v %+v", snap, tiers)
	}
	for _, want := range []string{
		fmt.Sprintf("hermes_cache_rebalance_challengers_total %d\n", snap.RebalanceChallengers),
		fmt.Sprintf("hermes_cache_hygiene_visits_total %d\n", snap.HygieneVisits),
		fmt.Sprintf("hermes_view_tier_rebuilds_total{tier=\"shadow\"} %d\n", tiers.Shadow),
		fmt.Sprintf("hermes_view_tier_rebuilds_total{tier=\"main\"} %d\n", tiers.Main),
		fmt.Sprintf("hermes_view_tier_rebuilds_total{tier=\"soft\"} %d\n", tiers.Soft),
		fmt.Sprintf("hermes_view_tier_rebuilds_total{tier=\"logical\"} %d\n", tiers.Logical),
		fmt.Sprintf("hermes_view_publishes_total %d\n", a.ViewPublishes()),
		"hermes_cache_hit_ratio ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if strings.Contains(body, "hermes_cache_lookup_p") {
		t.Error("/metrics still exports the modeled lookup-latency quantiles")
	}
}

// TestCachedBatchMatchesPerOp applies the same op sequence through the
// vectored entry points and the per-op ones and requires identical results
// and lookup behavior.
func TestCachedBatchMatchesPerOp(t *testing.T) {
	mk := func() *Agent {
		return newTestAgent(t, Config{
			DisableRateLimit: true,
			Cache:            &rulecache.Config{Capacity: 4, Policy: rulecache.PolicyLFU},
		})
	}
	perOp, batched := mk(), mk()
	rng := rand.New(rand.NewSource(11))
	var ops []BatchOp
	nextID := classifier.RuleID(1)
	for i := 0; i < 40; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			ops = append(ops, BatchOp{Kind: BatchInsert, Rule: classifier.Rule{
				ID:       nextID,
				Match:    classifier.DstMatch(classifier.NewPrefix(0xAC100000|(rng.Uint32()&0xFFFF), uint8(16+rng.Intn(9)))),
				Priority: int32(rng.Intn(6)),
				Action:   classifier.Action{Type: classifier.ActionForward, Port: int(nextID)},
			}})
			nextID++
		case 2:
			if nextID > 1 {
				ops = append(ops, BatchOp{Kind: BatchDelete, Rule: classifier.Rule{ID: classifier.RuleID(rng.Intn(int(nextID)) + 1)}})
			}
		default:
			if nextID > 1 {
				id := classifier.RuleID(rng.Intn(int(nextID)) + 1)
				ops = append(ops, BatchOp{Kind: BatchModify, Rule: classifier.Rule{
					ID:       id,
					Match:    classifier.DstMatch(classifier.NewPrefix(0xAC100000|(rng.Uint32()&0xFFFF), 24)),
					Priority: int32(rng.Intn(6)),
					Action:   classifier.Action{Type: classifier.ActionDrop},
				}})
			}
		}
	}
	now := 5 * time.Millisecond
	var perRes []BatchResult
	for _, op := range ops {
		var res Result
		var err error
		switch op.Kind {
		case BatchInsert:
			res, err = perOp.Insert(now, op.Rule)
		case BatchDelete:
			res, err = perOp.Delete(now, op.Rule.ID)
		default:
			res, err = perOp.Modify(now, op.Rule)
		}
		perRes = append(perRes, BatchResult{Res: res, Err: err})
	}
	batchRes := batched.ApplyBatch(now, ops, nil)
	if len(batchRes) != len(perRes) {
		t.Fatalf("result count %d vs %d", len(batchRes), len(perRes))
	}
	for i := range perRes {
		if (perRes[i].Err == nil) != (batchRes[i].Err == nil) {
			t.Errorf("op %d: err %v vs %v", i, perRes[i].Err, batchRes[i].Err)
		}
		if perRes[i].Err == nil && perRes[i].Res.Path != batchRes[i].Res.Path {
			t.Errorf("op %d: path %v vs %v", i, perRes[i].Res.Path, batchRes[i].Res.Path)
		}
	}
	rr := rand.New(rand.NewSource(12))
	for k := 0; k < 400; k++ {
		dst := 0xAC100000 | rr.Uint32()&0xFFFFF
		g1, ok1 := perOp.Lookup(dst, 0)
		g2, ok2 := batched.Lookup(dst, 0)
		if ok1 != ok2 || (ok1 && g1.Action != g2.Action) {
			t.Fatalf("pkt %08x: per-op %v(%v) batch %v(%v)", dst, g1, ok1, g2, ok2)
		}
	}
	if err := batched.CheckConsistency(); err != nil {
		t.Errorf("batched consistency: %v", err)
	}
}

// TestTrackHitsOnly exercises the hit accounting satellite without the
// cache tier: the insert paths are untouched and lookups count hits.
func TestTrackHitsOnly(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true, TrackHits: true})
	if a.Cached() {
		t.Fatal("TrackHits alone must not enable the cache tier")
	}
	now := time.Duration(0)
	for i := 1; i <= 3; i++ {
		r := dstRule(classifier.RuleID(i), "10.0.0.0/8", int32(i), i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<24, 8))
		res, err := a.Insert(now, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path == PathSoft {
			t.Errorf("rule %d took the soft path without a cache", i)
		}
		now += time.Millisecond
	}
	for k := 0; k < 5; k++ {
		a.Lookup(1<<24|uint32(k), 0)
	}
	a.Lookup(2<<24|1, 0)
	if got := a.RuleHits(1); got != 5 {
		t.Errorf("RuleHits(1) = %d, want 5", got)
	}
	if got := a.RuleHits(2); got != 1 {
		t.Errorf("RuleHits(2) = %d, want 1", got)
	}
	if got := a.RuleHits(3); got != 0 {
		t.Errorf("RuleHits(3) = %d, want 0", got)
	}
	// Fragment hits attribute to the original rule: force a partition by
	// adding an overlapping higher-priority main rule via migration.
	if _, err := a.Delete(now, 3); err != nil {
		t.Fatal(err)
	}
}

// FuzzCachedLookupEquivalence drives a cached agent with a fuzz-shaped op
// stream and cross-checks every lookup against the single-table oracle.
func FuzzCachedLookupEquivalence(f *testing.F) {
	// Boundary seeds: promotion fill, demotion churn, cover-heavy overlap.
	f.Add(int64(1), []byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55})
	f.Add(int64(2), []byte{0xF0, 0xF1, 0xF2, 0x03, 0x04, 0x05, 0x06, 0x07, 0xFF})
	f.Add(int64(3), []byte{0x80, 0x81, 0x82, 0x83, 0x90, 0x91, 0x92, 0x93, 0xA0, 0xA1})
	f.Add(int64(4), []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90, 0xA0, 0xB0, 0xC0})
	f.Fuzz(func(t *testing.T, seed int64, program []byte) {
		if len(program) == 0 || len(program) > 256 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		a := newTestAgent(t, Config{
			DisableRateLimit: true,
			Cache: &rulecache.Config{
				Capacity: 1 + int(program[0]%6),
				Policy:   rulecache.Policy(program[0] % 3),
			},
		})
		now := time.Duration(0)
		nextID := classifier.RuleID(1)
		live := []classifier.RuleID{}
		for _, b := range program {
			now += time.Duration(b%7+1) * time.Millisecond
			switch b % 5 {
			case 0, 1: // insert
				r := classifier.Rule{
					ID:       nextID,
					Match:    classifier.DstMatch(classifier.NewPrefix(0xC0A80000|uint32(b)<<8, uint8(16+int(b%13)))),
					Priority: int32(b % 8),
					Action:   classifier.Action{Type: classifier.ActionForward, Port: int(nextID)},
				}
				if _, err := a.Insert(now, r); err == nil {
					live = append(live, nextID)
				}
				nextID++
			case 2: // delete
				if len(live) > 0 {
					i := int(b) % len(live)
					a.Delete(now, live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 3: // tick (rebalance)
				a.Tick(now)
			default: // lookups to skew popularity
				for k := 0; k < int(b%16); k++ {
					a.Lookup(0xC0A80000|uint32(b)<<8|uint32(k), 0)
				}
			}
			if a.NeedsReconcile() {
				a.Reconcile(now)
			}
			// Cross-check a probe sample.
			for k := 0; k < 20; k++ {
				dst := 0xC0A80000 | rng.Uint32()&0xFFFF
				want, wok := a.LogicalLookup(dst, 0)
				got, gok := a.Lookup(dst, 0)
				if wok != gok || (wok && (got.Action != want.Action || got.Priority != want.Priority)) {
					t.Fatalf("pkt %08x: got %v(%v) want %v(%v)", dst, got, gok, want, wok)
				}
			}
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		if err := shadowIndexErr(a); err != nil {
			t.Fatal(err)
		}
	})
}
