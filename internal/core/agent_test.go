package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/rulecache"
	"hermes/internal/tcam"
)

func newTestAgent(t *testing.T, cfg Config) *Agent {
	t.Helper()
	sw := tcam.NewSwitch("test", tcam.Pica8P3290)
	if cfg.Guarantee == 0 {
		cfg.Guarantee = 5 * time.Millisecond
	}
	cfg.TrackLogical = true
	a, err := New(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func dstRule(id classifier.RuleID, dst string, prio int32, port int) classifier.Rule {
	return classifier.Rule{
		ID:       id,
		Match:    classifier.DstMatch(classifier.MustParsePrefix(dst)),
		Priority: prio,
		Action:   classifier.Action{Type: classifier.ActionForward, Port: port},
	}
}

func TestNewAgentSizing(t *testing.T) {
	sw := tcam.NewSwitch("s", tcam.Pica8P3290)
	a, err := New(sw, Config{Guarantee: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if a.ShadowSize() != tcam.Pica8P3290.MaxShiftsWithin(5*time.Millisecond) {
		t.Errorf("shadow size = %d", a.ShadowSize())
	}
	if a.OverheadFraction() >= 0.05 {
		t.Errorf("overhead = %.3f, want < 5%% for a 5ms guarantee (paper headline)", a.OverheadFraction())
	}
	if a.MaxRate() <= 0 {
		t.Error("max rate must be positive")
	}
	if a.Guarantee() != 5*time.Millisecond {
		t.Error("guarantee accessor")
	}
}

func TestNewAgentInfeasible(t *testing.T) {
	sw := tcam.NewSwitch("s", tcam.Pica8P3290)
	_, err := New(sw, Config{Guarantee: tcam.Pica8P3290.FloorLatency / 2})
	if !errors.Is(err, ErrGuaranteeInfeasible) {
		t.Errorf("err = %v, want ErrGuaranteeInfeasible", err)
	}
	if _, err := New(sw, Config{}); err == nil {
		t.Error("zero guarantee must fail")
	}
	// The software tier is the cached agent's reference, so a scanning
	// hardware tier under it is refused — before the switch is carved.
	if _, err := New(sw, Config{Guarantee: 5 * time.Millisecond, LinearLookup: true,
		Cache: &rulecache.Config{Capacity: 8}}); err == nil {
		t.Error("Cache with LinearLookup must fail")
	}
	if _, err := New(sw, Config{Guarantee: 5 * time.Millisecond}); err != nil {
		t.Errorf("a refused config left the switch unusable: %v", err)
	}
}

func TestInsertGuaranteeHolds(t *testing.T) {
	a := newTestAgent(t, Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true})
	now := time.Duration(0)
	for i := 0; i < 60; i++ {
		r := dstRule(classifier.RuleID(i+1), "10.0.0.0/8", int32(i%7), i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<16|0x0A000000, 24))
		res, err := a.Insert(now, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != PathShadow && res.Path != PathBypass {
			t.Fatalf("rule %d path = %v", i, res.Path)
		}
		if res.Completed-now > 5*time.Millisecond {
			t.Errorf("rule %d latency %v exceeds guarantee", i, res.Completed-now)
		}
		now += 10 * time.Millisecond // paced below MaxRate
	}
	m := a.Metrics()
	if m.Violations != 0 {
		t.Errorf("violations = %d", m.Violations)
	}
	if m.ShadowInserts+m.Bypasses != 60 {
		t.Errorf("guaranteed inserts = %d+%d", m.ShadowInserts, m.Bypasses)
	}
}

func TestLowPriorityBypass(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true})
	// First rule: nothing installed anywhere, so it is globally lowest.
	res, err := a.Insert(0, dstRule(1, "10.0.0.0/8", 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathBypass {
		t.Errorf("first rule path = %v, want bypass", res.Path)
	}
	// Lower-priority rule also bypasses.
	res, _ = a.Insert(time.Millisecond, dstRule(2, "20.0.0.0/8", 3, 2))
	if res.Path != PathBypass {
		t.Errorf("lower-priority path = %v, want bypass", res.Path)
	}
	// Higher-priority rule cannot bypass.
	res, _ = a.Insert(2*time.Millisecond, dstRule(3, "30.0.0.0/8", 9, 3))
	if res.Path != PathShadow {
		t.Errorf("higher-priority path = %v, want shadow", res.Path)
	}
	if a.Metrics().Bypasses != 2 {
		t.Errorf("bypasses = %d", a.Metrics().Bypasses)
	}
}

func TestBypassDisabled(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true, DisableLowPriorityBypass: true})
	res, err := a.Insert(0, dstRule(1, "10.0.0.0/8", 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathShadow {
		t.Errorf("path = %v, want shadow with bypass disabled", res.Path)
	}
}

func TestPredicateRouting(t *testing.T) {
	onlyHighPrio := func(r classifier.Rule) bool { return r.Priority >= 100 }
	a := newTestAgent(t, Config{Predicate: onlyHighPrio, DisableRateLimit: true, DisableLowPriorityBypass: true})
	res, _ := a.Insert(0, dstRule(1, "10.0.0.0/8", 5, 1))
	if res.Path != PathMain || res.Guaranteed {
		t.Errorf("unguarded rule: path=%v guaranteed=%v", res.Path, res.Guaranteed)
	}
	res, _ = a.Insert(time.Millisecond, dstRule(2, "20.0.0.0/8", 150, 2))
	if res.Path != PathShadow || !res.Guaranteed {
		t.Errorf("guarded rule: path=%v guaranteed=%v", res.Path, res.Guaranteed)
	}
}

func TestRateLimiterDivertsToMain(t *testing.T) {
	a := newTestAgent(t, Config{DisableLowPriorityBypass: true})
	// Flood far above MaxRate at a single instant: after the burst budget
	// (== shadow size) is consumed, inserts divert to the main table.
	n := a.ShadowSize() + 50
	var mainPath int
	for i := 0; i < n; i++ {
		r := dstRule(classifier.RuleID(i+1), "10.0.0.0/8", int32(i), i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<12|0x0A000000, 28))
		res, err := a.Insert(0, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path == PathMain {
			mainPath++
		}
	}
	if mainPath == 0 {
		t.Error("token bucket never diverted under a flood")
	}
	if a.Metrics().RateLimited == 0 {
		t.Error("RateLimited counter not incremented")
	}
}

func TestRedundantInsert(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true, DisableLowPriorityBypass: true})
	// Install a high-priority covering rule, migrate it into main, then
	// insert a subsumed lower-priority rule.
	if _, err := a.Insert(0, dstRule(1, "192.168.0.0/16", 100, 1)); err != nil {
		t.Fatal(err)
	}
	end := a.ForceMigration(time.Millisecond)
	if end == 0 {
		t.Fatal("migration did not start")
	}
	a.Advance(end)
	if a.MainOccupancy() != 1 {
		t.Fatalf("main occupancy = %d", a.MainOccupancy())
	}
	res, err := a.Insert(end+time.Millisecond, dstRule(2, "192.168.1.0/24", 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathRedundant {
		t.Errorf("path = %v, want redundant", res.Path)
	}
	if a.ShadowOccupancy() != 0 {
		t.Errorf("shadow occupancy = %d after redundant insert", a.ShadowOccupancy())
	}
	// The covering rule still answers lookups.
	addr := classifier.MustParsePrefix("192.168.1.5/32").Addr
	got, ok := a.Lookup(addr, 0)
	if !ok || got.ID != 1 {
		t.Errorf("lookup = %v, %v", got, ok)
	}
}

func TestPartitionOnInsertPaperExample(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true, DisableLowPriorityBypass: true})
	// Fig. 4: higher-priority /26 in main, then a lower-priority /24.
	if _, err := a.Insert(0, dstRule(1, "192.168.1.0/26", 10, 1)); err != nil {
		t.Fatal(err)
	}
	end := a.ForceMigration(time.Millisecond)
	a.Advance(end)

	res, err := a.Insert(end+time.Millisecond, dstRule(2, "192.168.1.0/24", 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathShadow || res.Partitions != 2 {
		t.Fatalf("res = %+v, want 2 shadow partitions", res)
	}
	// .5 must hit port 1 (main /26), .200 port 2 (shadow fragment).
	addr5 := classifier.MustParsePrefix("192.168.1.5/32").Addr
	addr200 := classifier.MustParsePrefix("192.168.1.200/32").Addr
	if got, _ := a.Lookup(addr5, 0); got.Action.Port != 1 {
		t.Errorf("lookup .5 port = %d, want 1", got.Action.Port)
	}
	if got, _ := a.Lookup(addr200, 0); got.Action.Port != 2 {
		t.Errorf("lookup .200 port = %d, want 2", got.Action.Port)
	}
}

func TestDeleteUnpartitions(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true, DisableLowPriorityBypass: true})
	a.Insert(0, dstRule(1, "192.168.1.0/26", 10, 1))
	end := a.ForceMigration(time.Millisecond)
	a.Advance(end)
	a.Insert(end+time.Millisecond, dstRule(2, "192.168.1.0/24", 5, 2))
	if a.ShadowOccupancy() != 2 {
		t.Fatalf("shadow occupancy = %d, want 2 fragments", a.ShadowOccupancy())
	}
	// Deleting the main-table /26 must restore the original /24 (Fig. 6).
	if _, err := a.Delete(end+2*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if a.ShadowOccupancy() != 1 {
		t.Errorf("shadow occupancy after unpartition = %d, want 1", a.ShadowOccupancy())
	}
	addr5 := classifier.MustParsePrefix("192.168.1.5/32").Addr
	got, ok := a.Lookup(addr5, 0)
	if !ok || got.Action.Port != 2 {
		t.Errorf("lookup .5 after delete = %v (ok=%v), want port 2", got, ok)
	}
}

func TestDeletePartitionedRuleRemovesAllFragments(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true, DisableLowPriorityBypass: true})
	a.Insert(0, dstRule(1, "192.168.1.0/26", 10, 1))
	end := a.ForceMigration(time.Millisecond)
	a.Advance(end)
	a.Insert(end+time.Millisecond, dstRule(2, "192.168.1.0/24", 5, 2))
	if _, err := a.Delete(end+2*time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	if a.ShadowOccupancy() != 0 {
		t.Errorf("fragments remain: %d", a.ShadowOccupancy())
	}
	addr200 := classifier.MustParsePrefix("192.168.1.200/32").Addr
	if _, ok := a.Lookup(addr200, 0); ok {
		t.Error("deleted rule still matches")
	}
}

func TestDeleteUnknown(t *testing.T) {
	a := newTestAgent(t, Config{})
	if _, err := a.Delete(0, 42); !errors.Is(err, ErrUnknownRule) {
		t.Errorf("err = %v", err)
	}
}

func TestInsertValidation(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true})
	if _, err := a.Insert(0, dstRule(partIDBase+1, "10.0.0.0/8", 1, 1)); !errors.Is(err, ErrReservedID) {
		t.Errorf("reserved id err = %v", err)
	}
	if _, err := a.Insert(0, dstRule(1, "10.0.0.0/8", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert(0, dstRule(1, "10.0.0.0/8", 1, 1)); !errors.Is(err, ErrDuplicateRule) {
		t.Errorf("duplicate err = %v", err)
	}
}

func TestModifyActionInPlace(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true})
	r := dstRule(1, "10.0.0.0/8", 50, 1)
	a.Insert(0, r)
	r.Action = classifier.Action{Type: classifier.ActionDrop}
	res, err := a.Modify(time.Millisecond, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency > tcam.Pica8P3290.ModifyLatency*2 {
		t.Errorf("action modify latency = %v, want ≈ constant", res.Latency)
	}
	got, ok := a.Lookup(classifier.MustParsePrefix("10.1.1.1/32").Addr, 0)
	if !ok || got.Action.Type != classifier.ActionDrop {
		t.Errorf("lookup after modify = %v", got)
	}
	if a.Metrics().Modifies != 1 {
		t.Error("Modifies counter")
	}
}

func TestModifyPriorityIsDeleteInsert(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true})
	r := dstRule(1, "10.0.0.0/8", 50, 1)
	a.Insert(0, r)
	inserts := a.Metrics().Inserts
	deletes := a.Metrics().Deletes
	r.Priority = 60
	if _, err := a.Modify(time.Millisecond, r); err != nil {
		t.Fatal(err)
	}
	m := a.Metrics()
	if m.Deletes != deletes+1 || m.Inserts != inserts+1 {
		t.Errorf("priority modify: deletes %d→%d inserts %d→%d", deletes, m.Deletes, inserts, m.Inserts)
	}
	got, ok := a.Lookup(classifier.MustParsePrefix("10.1.1.1/32").Addr, 0)
	if !ok || got.Priority != 60 {
		t.Errorf("rule after priority modify = %v", got)
	}
}

func TestModifyUnknown(t *testing.T) {
	a := newTestAgent(t, Config{})
	if _, err := a.Modify(0, dstRule(9, "10.0.0.0/8", 1, 1)); !errors.Is(err, ErrUnknownRule) {
		t.Errorf("err = %v", err)
	}
}

func TestMigrationEmptiesShadow(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true, DisableLowPriorityBypass: true})
	for i := 0; i < 20; i++ {
		a.Insert(0, dstRule(classifier.RuleID(i+1), "10.0.0.0/8", int32(i), i))
	}
	if a.ShadowOccupancy() != 20 {
		t.Fatalf("shadow = %d", a.ShadowOccupancy())
	}
	end := a.ForceMigration(time.Millisecond)
	if end == 0 {
		t.Fatal("migration did not start")
	}
	if !a.Migrating(time.Millisecond) {
		t.Error("Migrating must report true mid-flight")
	}
	if got := a.MigrationEndsAt(); got != end {
		t.Errorf("MigrationEndsAt = %v, want %v", got, end)
	}
	a.Advance(end)
	if a.ShadowOccupancy() != 0 {
		t.Errorf("shadow after migration = %d", a.ShadowOccupancy())
	}
	if a.MainOccupancy() != 20 {
		t.Errorf("main after migration = %d", a.MainOccupancy())
	}
	m := a.Metrics()
	if m.Migrations != 1 || m.MigratedRules != 20 {
		t.Errorf("metrics = %+v", m)
	}
	// All rules still resolve.
	for i := 0; i < 20; i++ {
		// Every rule shares the 10/8 prefix: the highest priority (19) wins.
		got, ok := a.Lookup(classifier.MustParsePrefix("10.1.1.1/32").Addr, 0)
		if !ok || got.Priority != 19 {
			t.Fatalf("lookup = %v, %v", got, ok)
		}
	}
}

func TestMigrationCollapsesFragments(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true, DisableLowPriorityBypass: true})
	a.Insert(0, dstRule(1, "192.168.1.0/26", 10, 1))
	end := a.ForceMigration(time.Millisecond)
	a.Advance(end)
	a.Insert(end+time.Millisecond, dstRule(2, "192.168.1.0/24", 5, 2)) // 2 fragments
	if a.ShadowOccupancy() != 2 {
		t.Fatalf("fragments = %d", a.ShadowOccupancy())
	}
	end2 := a.ForceMigration(end + 2*time.Millisecond)
	a.Advance(end2)
	// The two fragments collapse into the single original in main.
	if a.MainOccupancy() != 2 {
		t.Errorf("main = %d, want 2 (covering rule + restored original)", a.MainOccupancy())
	}
	if a.ShadowOccupancy() != 0 {
		t.Errorf("shadow = %d", a.ShadowOccupancy())
	}
	// Semantics preserved: .5 → port 1, .200 → port 2.
	addr5 := classifier.MustParsePrefix("192.168.1.5/32").Addr
	addr200 := classifier.MustParsePrefix("192.168.1.200/32").Addr
	if got, _ := a.Lookup(addr5, 0); got.Action.Port != 1 {
		t.Errorf(".5 port = %d", got.Action.Port)
	}
	if got, _ := a.Lookup(addr200, 0); got.Action.Port != 2 {
		t.Errorf(".200 port = %d", got.Action.Port)
	}
}

func TestTickPredictiveMigration(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true, DisableLowPriorityBypass: true})
	now := time.Duration(0)
	id := classifier.RuleID(1)
	// Ramp arrivals so the spline predicts overflow before it happens.
	migrated := false
	perTick := 2
	for tick := 0; tick < 60 && !migrated; tick++ {
		for i := 0; i < perTick; i++ {
			r := dstRule(id, "10.0.0.0/8", int32(id%97), int(id))
			r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(id)<<8|0x0A000000, 28))
			if _, err := a.Insert(now, r); err != nil {
				t.Fatal(err)
			}
			id++
		}
		perTick += 2
		now += 10 * time.Millisecond
		if end := a.Tick(now); end != 0 {
			migrated = true
			a.Advance(end)
		}
		if a.ShadowOccupancy() >= a.ShadowSize() {
			t.Fatalf("shadow overflowed before prediction fired (occ=%d)", a.ShadowOccupancy())
		}
	}
	if !migrated {
		t.Fatal("predictive tick never migrated")
	}
}

// TestPredictiveTickAllocatesNothing: once the predictor's window is full, a
// Rule Manager tick that forecasts and decides not to migrate allocates
// nothing.
func TestPredictiveTickAllocatesNothing(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true, DisableLowPriorityBypass: true})
	for i := 0; i < 4; i++ {
		r := dstRule(classifier.RuleID(i+1), "10.0.0.0/8", 10, i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(0x0A000000|uint32(i)<<8, 24))
		if _, err := a.Insert(0, r); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Duration(0)
	tick := func() {
		now += 10 * time.Millisecond
		if a.Tick(now) != 0 {
			t.Fatal("a quiet tick started a migration")
		}
	}
	for i := 0; i < 32; i++ {
		tick()
	}
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Errorf("predictive Tick allocates %v times, want 0", n)
	}
}

func TestTickThresholdMode(t *testing.T) {
	a := newTestAgent(t, Config{
		DisableRateLimit: true, DisableLowPriorityBypass: true,
		Mode: MigrationThreshold, Threshold: 0.5,
	})
	now := time.Duration(0)
	// Fill to just under half: no migration.
	half := a.ShadowSize() / 2
	for i := 0; i < half-1; i++ {
		r := dstRule(classifier.RuleID(i+1), "10.0.0.0/8", int32(i%97), i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<8|0x0A000000, 28))
		a.Insert(now, r)
	}
	if end := a.Tick(now + time.Millisecond); end != 0 {
		t.Fatal("threshold migration fired below threshold")
	}
	// Cross the threshold.
	for i := 0; i < 3; i++ {
		r := dstRule(classifier.RuleID(half+10+i), "10.0.0.0/8", 1, i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(0x14000000|uint32(i)<<8, 28))
		a.Insert(now+2*time.Millisecond, r)
	}
	end := a.Tick(now + 3*time.Millisecond)
	if end == 0 {
		t.Fatal("threshold migration did not fire at threshold")
	}
	a.Advance(end)
	if a.ShadowOccupancy() != 0 {
		t.Error("shadow not emptied")
	}
}

// verifyEquivalence samples packets and compares the two-table lookup with
// the logical monolithic reference — the paper's core correctness
// guarantee (§4).
func verifyEquivalence(t *testing.T, a *Agent, r *rand.Rand, samples int) {
	t.Helper()
	logical := a.LogicalRules()
	for k := 0; k < samples; k++ {
		var dst uint32
		if len(logical) > 0 && r.Intn(4) != 0 {
			pick := logical[r.Intn(len(logical))].Match.Dst
			dst = pick.Addr | (r.Uint32() & ^pick.Mask())
		} else {
			dst = r.Uint32()
		}
		want, wok := a.LogicalLookup(dst, 0)
		got, gok := a.Lookup(dst, 0)
		if wok != gok {
			t.Fatalf("pkt %08x: found=%v want %v", dst, gok, wok)
		}
		if wok && got.Action != want.Action {
			t.Fatalf("pkt %08x: action %v, want %v", dst, got.Action, want.Action)
		}
	}
}

// TestEquivalenceUnderRandomWorkload drives the agent with a random mix of
// inserts, deletes, modifications, ticks and migrations, continuously
// checking that the carved pipeline behaves exactly like one monolithic
// table.
func TestEquivalenceUnderRandomWorkload(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := newTestAgent(t, Config{DisableRateLimit: true})
		now := time.Duration(0)
		live := []classifier.RuleID{}
		nextID := classifier.RuleID(1)
		for op := 0; op < 120; op++ {
			now += time.Duration(r.Intn(8)+1) * time.Millisecond
			switch x := r.Intn(10); {
			case x < 6: // insert
				rule := classifier.Rule{
					ID:       nextID,
					Match:    classifier.DstMatch(classifier.NewPrefix(0xC0A80000|(r.Uint32()&0xFFFF), uint8(16+r.Intn(17)))),
					Priority: int32(r.Intn(50)),
					Action:   classifier.Action{Type: classifier.ActionForward, Port: int(nextID)},
				}
				if _, err := a.Insert(now, rule); err != nil {
					t.Logf("insert: %v", err)
					return false
				}
				live = append(live, nextID)
				nextID++
			case x < 8 && len(live) > 0: // delete
				i := r.Intn(len(live))
				if _, err := a.Delete(now, live[i]); err != nil {
					t.Logf("delete: %v", err)
					return false
				}
				live = append(live[:i], live[i+1:]...)
			case x == 8: // tick (may trigger predictive migration)
				if end := a.Tick(now); end != 0 && r.Intn(2) == 0 {
					now = end
					a.Advance(now)
				}
			default: // force migration
				if end := a.ForceMigration(now); end != 0 && r.Intn(2) == 0 {
					now = end
					a.Advance(now)
				}
			}
			verifyEquivalence(t, a, r, 25)
		}
		// Drain any in-flight migration and re-verify.
		if end := a.MigrationEndsAt(); end != 0 {
			a.Advance(end)
		}
		verifyEquivalence(t, a, r, 200)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNaiveMigrationExposesRules(t *testing.T) {
	a := newTestAgent(t, Config{
		DisableRateLimit: true, DisableLowPriorityBypass: true, NaiveMigration: true,
	})
	for i := 0; i < 10; i++ {
		r := dstRule(classifier.RuleID(i+1), "10.0.0.0/8", int32(i+1), i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<8|0x0A000000, 28))
		a.Insert(0, r)
	}
	end := a.ForceMigration(time.Millisecond)
	if end == 0 {
		t.Fatal("no migration")
	}
	// Mid-flight the rules are installed nowhere: the transient-miss
	// window §5.2's atomic ordering avoids.
	if a.ShadowOccupancy() != 0 {
		t.Error("naive migration must empty shadow at start")
	}
	if a.MainOccupancy() != 0 {
		t.Error("main must not be populated before completion")
	}
	a.Advance(end)
	if a.MainOccupancy() != 10 {
		t.Errorf("main after naive migration = %d", a.MainOccupancy())
	}
	if a.Metrics().ExposedRuleSeconds <= 0 {
		t.Error("ExposedRuleSeconds not accounted")
	}
}

func TestSafeMigrationNeverExposesRules(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true, DisableLowPriorityBypass: true})
	for i := 0; i < 10; i++ {
		r := dstRule(classifier.RuleID(i+1), "10.0.0.0/8", int32(i+1), i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<8|0x0A000000, 28))
		a.Insert(0, r)
	}
	end := a.ForceMigration(time.Millisecond)
	// Mid-flight every rule still resolves (it is still in the shadow).
	for i := 0; i < 10; i++ {
		addr := uint32(i)<<8 | 0x0A000000
		if _, ok := a.Lookup(addr, 0); !ok {
			t.Fatalf("rule %d unreachable mid-migration", i)
		}
	}
	a.Advance(end)
	if a.Metrics().ExposedRuleSeconds != 0 {
		t.Error("safe migration must not expose rules")
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := newMetrics()
	m.Violations = 2
	for _, ms := range []float64{1, 2, 3, 4} {
		m.observeLatency(time.Duration(ms*1e6), true)
	}
	if got := m.ViolationRate(); got != 0.5 {
		t.Errorf("ViolationRate = %v", got)
	}
	if got := m.GuaranteedCount(); got != 4 {
		t.Errorf("GuaranteedCount = %v", got)
	}
	if got := m.GuaranteedQuantileMS(1); got < 3.8 || got > 4.2 {
		t.Errorf("GuaranteedQuantileMS(1) = %v, want ≈4", got)
	}
	if got := (Metrics{}).ViolationRate(); got != 0 {
		t.Errorf("empty ViolationRate = %v", got)
	}
	m.Migrations = 10
	if got := m.MigrationsPerSecond(2 * time.Second); got != 5 {
		t.Errorf("MigrationsPerSecond = %v", got)
	}
	if got := m.MigrationsPerSecond(0); got != 0 {
		t.Errorf("MigrationsPerSecond(0) = %v", got)
	}
}
