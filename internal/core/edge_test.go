package core

import (
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/tcam"
)

func TestAgentAccessors(t *testing.T) {
	sw := tcam.NewSwitch("acc", tcam.Pica8P3290)
	a, err := New(sw, Config{Guarantee: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if a.Switch() != sw {
		t.Error("Switch accessor")
	}
}

func TestInsertPathString(t *testing.T) {
	want := map[InsertPath]string{
		PathShadow: "shadow", PathBypass: "bypass",
		PathMain: "main", PathRedundant: "redundant",
		InsertPath(42): "unknown",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
}

// TestNaiveMigrationWithFragments: the naive ablation combined with disabled
// merging must install a rule's fragments from its parts after the shadow
// table was wiped.
func TestNaiveMigrationWithFragments(t *testing.T) {
	a := newTestAgent(t, Config{
		DisableRateLimit:         true,
		DisableLowPriorityBypass: true,
		DisableMergeOptimization: true,
		NaiveMigration:           true,
	})
	// Blocker in main (via migration), then a rule that fragments.
	if _, err := a.Insert(0, dstRule(1, "192.168.1.0/26", 50, 1)); err != nil {
		t.Fatal(err)
	}
	end := a.ForceMigration(time.Millisecond)
	a.Advance(end)
	res, err := a.Insert(end+time.Millisecond, dstRule(2, "192.168.1.0/24", 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions < 2 {
		t.Fatalf("partitions = %d, want fragments", res.Partitions)
	}
	// Migrate the fragments naively: shadow wiped first, fragments
	// reconstructed from the mapping at completion.
	end2 := a.ForceMigration(end + 2*time.Millisecond)
	if end2 == 0 {
		t.Fatal("no migration")
	}
	a.Advance(end2)
	if a.ShadowOccupancy() != 0 {
		t.Errorf("shadow = %d", a.ShadowOccupancy())
	}
	// Semantics must survive: .5 hits the /26 (port 1), .200 the fragments
	// (port 2).
	addr5 := classifier.MustParsePrefix("192.168.1.5/32").Addr
	addr200 := classifier.MustParsePrefix("192.168.1.200/32").Addr
	if got, ok := a.Lookup(addr5, 0); !ok || got.Action.Port != 1 {
		t.Errorf("lookup .5 = %v, %v", got, ok)
	}
	if got, ok := a.Lookup(addr200, 0); !ok || got.Action.Port != 2 {
		t.Errorf("lookup .200 = %v, %v", got, ok)
	}
}

// TestDeleteDuringMigration removes a migrating rule mid-flight; the
// completion must skip it.
func TestDeleteDuringMigration(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true, DisableLowPriorityBypass: true})
	for i := 0; i < 10; i++ {
		r := dstRule(classifier.RuleID(i+1), "10.0.0.0/8", int32(i+1), i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<8|0x0A000000, 28))
		a.Insert(0, r)
	}
	end := a.ForceMigration(time.Millisecond)
	if end == 0 {
		t.Fatal("no migration")
	}
	// Delete rule 5 while the copy is in flight.
	if _, err := a.Delete(end/2, 5); err != nil {
		t.Fatal(err)
	}
	a.Advance(end)
	if a.MainOccupancy() != 9 {
		t.Errorf("main occupancy = %d, want 9 (deleted rule skipped)", a.MainOccupancy())
	}
	addr := uint32(4)<<8 | 0x0A000000
	if _, ok := a.Lookup(addr, 0); ok {
		t.Error("deleted rule still resolvable")
	}
}

// TestInsertDuringMigrationRepartitioned verifies the post-migration
// re-partition: a rule inserted mid-migration that conflicts with a
// migrating higher-priority rule gets cut when the migration lands.
func TestInsertDuringMigrationRepartitioned(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true, DisableLowPriorityBypass: true})
	// High-priority rule that will migrate to main.
	a.Insert(0, dstRule(1, "192.168.1.0/26", 50, 1))
	end := a.ForceMigration(time.Millisecond)
	if end == 0 {
		t.Fatal("no migration")
	}
	// Mid-migration: overlapping lower-priority rule. At insert time the
	// main table is still empty, so no cut happens yet.
	res, err := a.Insert(end/2, dstRule(2, "192.168.1.0/24", 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 1 {
		t.Fatalf("mid-migration insert fragmented early: %+v", res)
	}
	a.Advance(end)
	// After the migration, the shadow rule must have been re-cut so the
	// main-table /26 wins on its region.
	addr5 := classifier.MustParsePrefix("192.168.1.5/32").Addr
	if got, ok := a.Lookup(addr5, 0); !ok || got.Action.Port != 1 {
		t.Errorf("lookup .5 = %v (ok=%v), want port 1 via main", got, ok)
	}
	addr200 := classifier.MustParsePrefix("192.168.1.200/32").Addr
	if got, ok := a.Lookup(addr200, 0); !ok || got.Action.Port != 2 {
		t.Errorf("lookup .200 = %v (ok=%v), want port 2 via shadow", got, ok)
	}
}

// TestMainTableFullFallback: when both shadow and main are exhausted the
// agent surfaces table-full semantics.
func TestMainTableFullFallback(t *testing.T) {
	prof := *tcam.Pica8P3290
	prof.Capacity = 64
	sw := tcam.NewSwitch("tiny", &prof)
	a, err := New(sw, Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true, DisableLowPriorityBypass: true})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	inserted, failed := 0, 0
	for i := 0; i < 200; i++ {
		r := dstRule(classifier.RuleID(i+1), "10.0.0.0/8", int32(i%5+1), i)
		r.Match = classifier.DstMatch(classifier.NewPrefix(uint32(i)<<16, 24))
		if _, err := a.Insert(now, r); err != nil {
			failed++
		} else {
			inserted++
		}
		now += time.Millisecond
		if end := a.Tick(now); end != 0 {
			a.Advance(end)
			now = end
		}
	}
	if failed == 0 {
		t.Error("tiny switch never reported table full")
	}
	if inserted < 32 {
		t.Errorf("only %d rules fit", inserted)
	}
}
