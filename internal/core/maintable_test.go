package core_test

// The Gate Keeper cuts against the main table's own index — there is no
// agent-side copy of it — and a main-resident rule is whatever physical
// entries its parts hold. Both are checked here against the exact
// monolithic-table checker.

import (
	"fmt"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/obs"
	"hermes/internal/tcam"
	"hermes/internal/verify"
)

func srcDstRule(id classifier.RuleID, dst, src string, prio int32, port int) classifier.Rule {
	return classifier.Rule{
		ID:       id,
		Match:    classifier.Match{Dst: classifier.MustParsePrefix(dst), Src: classifier.MustParsePrefix(src)},
		Priority: prio,
		Action:   classifier.Action{Type: classifier.ActionForward, Port: port},
	}
}

func tableAgent(t *testing.T, cfg core.Config) *core.Agent {
	t.Helper()
	cfg.Guarantee = 5 * time.Millisecond
	cfg.TrackLogical = true
	// Every insert below goes shadow table first, main table by migration.
	cfg.DisableRateLimit = true
	cfg.DisableLowPriorityBypass = true
	a, err := core.New(tcam.NewSwitch("tbl", tcam.Pica8P3290), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// mustInsert inserts r on the guaranteed path and returns its fragment count.
func mustInsert(t *testing.T, a *core.Agent, now time.Duration, r classifier.Rule) int {
	t.Helper()
	res, err := a.Insert(now, r)
	if err != nil {
		t.Fatalf("insert %d: %v", r.ID, err)
	}
	if res.Path != core.PathShadow {
		t.Fatalf("insert %d took path %v, want the shadow table", r.ID, res.Path)
	}
	return res.Partitions
}

// migrateAll moves everything in the shadow table to the main table.
func migrateAll(t *testing.T, a *core.Agent, now time.Duration) {
	t.Helper()
	end := a.ForceMigration(now)
	if end == 0 {
		t.Fatal("no migration started")
	}
	a.Advance(end)
	if occ := a.ShadowOccupancy(); occ != 0 {
		t.Fatalf("%d shadow entries left after the migration", occ)
	}
}

// mustBeExact proves the carved pipeline equal to one monolithic TCAM, the
// physical tables equal to the agent's desired state and every partition
// record equal to a fresh cut's.
func mustBeExact(t *testing.T, a *core.Agent, when string) {
	t.Helper()
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if err := a.CheckPartitions(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	ce, err := verify.Agent(a)
	if err != nil {
		t.Fatal(err)
	}
	if ce != nil {
		t.Fatalf("%s: pipeline differs from the monolithic table: %v", when, ce)
	}
}

func TestGateKeeperCutsAgainstTheTable(t *testing.T) {
	const anySrc = "0.0.0.0/0"
	hi := srcDstRule(1, "10.0.0.0/24", anySrc, 100, 1)
	lo := srcDstRule(9, "10.0.0.0/22", anySrc, 10, 9)
	cases := []struct {
		name string
		main []classifier.Rule // migrated into the main table before lo arrives
		// arm runs before that migration, then after it.
		arm  func(main *tcam.Table)
		then func(t *testing.T, a *core.Agent, main *tcam.Table)
		// wantParts is lo's fragment count at insert (0: any cut will do);
		// wantRepair is what the Reconcile after it reports.
		wantParts  int
		wantRepair core.ReconcileReport
	}{{
		// The update engine acks the migration's main-table write and never
		// applies it: there is nothing physical for lo to be cut against.
		name: "dropped main insert",
		main: []classifier.Rule{hi},
		arm: func(main *tcam.Table) {
			main.SetFaultHook(func(op tcam.Op, id classifier.RuleID) tcam.OpFault {
				return tcam.OpFault{Drop: op == tcam.OpInsert && id == hi.ID}
			})
		},
		then: func(t *testing.T, _ *core.Agent, main *tcam.Table) {
			main.SetFaultHook(nil)
			if main.DroppedOps() != 1 || main.Occupancy() != 0 {
				t.Fatalf("hook dropped %d ops, main holds %d entries; want 1 and 0", main.DroppedOps(), main.Occupancy())
			}
		},
		wantParts:  1,
		wantRepair: core.ReconcileReport{MainReinstalled: 1, ShadowRepaired: 1},
	}, {
		// The switch power-cycles and nobody tells the agent.
		name: "out-of-band restart",
		main: []classifier.Rule{hi},
		then: func(_ *testing.T, a *core.Agent, _ *tcam.Table) {
			a.Switch().CrashRestart()
		},
		wantParts:  1,
		wantRepair: core.ReconcileReport{MainReinstalled: 1, ShadowRepaired: 1},
	}, {
		// An action-only Modify keeps the rule's place among its same-prefix
		// siblings in the table's index; lo is cut against both all the same.
		name: "modify beside a same-prefix sibling",
		main: []classifier.Rule{
			srcDstRule(1, "10.0.0.0/24", "1.0.0.0/8", 100, 1),
			srcDstRule(2, "10.0.0.0/24", "2.0.0.0/8", 100, 2),
		},
		then: func(t *testing.T, a *core.Agent, _ *tcam.Table) {
			mod := srcDstRule(1, "10.0.0.0/24", "1.0.0.0/8", 100, 7)
			if _, err := a.Modify(time.Second, mod); err != nil {
				t.Fatal(err)
			}
			mustBeExact(t, a, "after the modify")
		},
		wantRepair: core.ReconcileReport{Kept: 1},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tableAgent(t, core.Config{})
			main := a.Switch().Slices()[1]
			for _, r := range tc.main {
				mustInsert(t, a, 0, r)
			}
			if tc.arm != nil {
				tc.arm(main)
			}
			migrateAll(t, a, 0)
			tc.then(t, a, main)

			parts := mustInsert(t, a, 2*time.Second, lo)
			if tc.wantParts != 0 && parts != tc.wantParts {
				t.Errorf("rule %d installed as %d fragments, want %d: the cut must see the table as it is", lo.ID, parts, tc.wantParts)
			}
			if tc.wantParts == 0 && parts < 2 {
				t.Errorf("rule %d installed as %d fragments, want it cut against both main rules", lo.ID, parts)
			}
			if rep := a.Reconcile(3 * time.Second); rep != tc.wantRepair {
				t.Errorf("Reconcile reported %v, want %v", rep, tc.wantRepair)
			}
			mustBeExact(t, a, "after Reconcile")
			if got := a.ShadowOccupancy(); got < 2 {
				t.Errorf("rule %d holds %d shadow entries after Reconcile, want it cut", lo.ID, got)
			}
		})
	}
}

// TestDeleteOfFragmentMigratedRule: under the fragment ablation a cut rule
// migrates as its fragments, so deleting it must delete every one of them,
// drop its cut record and un-partition the rules those fragments had
// cut (Fig. 6) — each against the fragment's own match, not the original's.
// Deleting one of its own causes instead must give it back what that cause
// covered. Every step ends in CheckConsistency, CheckPartitions and the exact
// checker.
func TestDeleteOfFragmentMigratedRule(t *testing.T) {
	const anySrc = "0.0.0.0/0"
	for _, tc := range []struct {
		name string
		// under migrates before rule 2 does (cut by rule 1 as well); over
		// arrives in the shadow table after rule 2 migrated.
		under, over []classifier.Rule
		del         classifier.RuleID
		wantMain    int
		kept, recut int
		// want maps a probe packet to the port it must resolve to, 0 = no match.
		want map[uint32]int
	}{{
		name: "withDependent=false", del: 2, wantMain: 1,
		want: map[uint32]int{0x0A000105: 0},
	}, {
		// Rule 3 is cut by rule 1 and by rule 2's fragments; only what lies
		// outside the /22 is installed, and the delete gives it the rest.
		name: "withDependent=true", del: 2, wantMain: 1, recut: 1,
		over: []classifier.Rule{srcDstRule(3, "10.0.0.0/21", anySrc, 5, 3)},
		want: map[uint32]int{0x0A000105: 3},
	}, {
		// The fragments of rules 4 and 5, a pair that splits the src space,
		// lie exactly under rule 2's and beat rule 3. Neither one's src
		// contains rule 3's, so rule 2's fragments, last in their trie nodes,
		// are causes of rule 3 too; each leaves rule 3 nothing, so the one
		// un-partition of rule 3 keeps it.
		name: "kept dependent", del: 2, wantMain: 5, kept: 1,
		under: []classifier.Rule{
			srcDstRule(4, "10.0.0.0/22", "0.0.0.0/1", 8, 4),
			srcDstRule(5, "10.0.0.0/22", "128.0.0.0/1", 8, 5),
		},
		over: []classifier.Rule{srcDstRule(3, "10.0.0.0/21", anySrc, 5, 3)},
		want: map[uint32]int{0x0A000105: 4, 0x0A000405: 3},
	}, {
		// As above, but rule 5 covers only 10.0.2.0/23, the first of rule 2's
		// two fragments: the second gives rule 3 back 10.0.1.0/24 from
		// 128.0.0.0/1, so rule 3 is re-cut though the first alone would keep
		// it.
		name: "one fragment re-covered", del: 2, wantMain: 4, recut: 1,
		under: []classifier.Rule{
			srcDstRule(4, "10.0.0.0/22", "0.0.0.0/1", 8, 4),
			srcDstRule(5, "10.0.2.0/23", "128.0.0.0/1", 8, 5),
		},
		over: []classifier.Rule{srcDstRule(3, "10.0.0.0/21", anySrc, 5, 3)},
		want: map[uint32]int{0x0A000105: 4, 0x0A000205: 4, 0x0A000405: 3},
	}, {
		// Rule 1 goes first: rule 2, the higher of its dependents, gets its /24
		// back as its original. The re-cut that rule 2's original asks for
		// cuts rule 3 against it at once, with rule 1 and rule 2's fragments
		// already out of the cut: rule 3 keeps its entries, and neither rule 2's
		// fragments nor rule 1 are its causes any more, so nothing is left to
		// un-partition.
		name: "cause deleted first", del: 1, wantMain: 1, recut: 1,
		over: []classifier.Rule{srcDstRule(3, "10.0.0.0/21", anySrc, 5, 3)},
		want: map[uint32]int{0x0A000005: 2, 0x0A000105: 2, 0x0A000405: 3},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			a := tableAgent(t, core.Config{DisableMergeOptimization: true})
			reg := obs.NewRegistry()
			a.RegisterCacheMetrics(reg)
			mustInsert(t, a, 0, srcDstRule(1, "10.0.0.0/24", anySrc, 100, 1))
			migrateAll(t, a, 0)
			mustBeExact(t, a, "rule 1 migrated")
			for _, r := range tc.under {
				mustInsert(t, a, 0, r)
				migrateAll(t, a, 0)
			}
			before := a.MainOccupancy()
			if parts := mustInsert(t, a, time.Second, srcDstRule(2, "10.0.0.0/22", anySrc, 10, 2)); parts != 2 {
				t.Fatalf("rule 2 installed as %d fragments, want 2", parts)
			}
			migrateAll(t, a, time.Second)
			mustBeExact(t, a, "rule 2 migrated as fragments")
			if occ := a.MainOccupancy(); occ != before+2 {
				t.Fatalf("main table holds %d entries, want the %d before rule 2 and its two fragments", occ, before)
			}
			for _, r := range tc.over {
				mustInsert(t, a, 2*time.Second, r)
			}
			mustBeExact(t, a, "dependents cut against the fragments")

			kept, recut := keptCounter(t, reg), a.Metrics().Repartitions
			if _, err := a.Delete(3*time.Second, tc.del); err != nil {
				t.Fatal(err)
			}
			if got := [2]int{keptCounter(t, reg) - kept, a.Metrics().Repartitions - recut}; got != [2]int{tc.kept, tc.recut} {
				t.Errorf("the delete kept %d and re-cut %d dependents, want %d and %d", got[0], got[1], tc.kept, tc.recut)
			}
			if occ := a.MainOccupancy(); occ != tc.wantMain {
				t.Errorf("main table holds %d entries after the delete, want %d", occ, tc.wantMain)
			}
			mustBeExact(t, a, fmt.Sprintf("rule %d deleted", tc.del))
			for pkt, port := range tc.want {
				if got, ok := a.Lookup(pkt, 0); ok != (port != 0) || got.Action.Port != port {
					t.Errorf("%08x resolves to %v %v after the delete, want port %d", pkt, got, ok, port)
				}
			}
			for _, r := range a.Rules() {
				if _, err := a.Delete(4*time.Second, r.ID); err != nil {
					t.Fatal(err)
				}
				mustBeExact(t, a, fmt.Sprintf("rule %d deleted too", r.ID))
			}
		})
	}
}

// TestModifyActionReachesRecordedFragments: an action-only Modify of a cut
// rule rewrites the fragments its record holds as well as the TCAM
// entries — they are what CheckConsistency compares against and what
// Reconcile writes back — in the shadow table and, under the fragment
// ablation, after the fragments migrated.
func TestModifyActionReachesRecordedFragments(t *testing.T) {
	a := tableAgent(t, core.Config{DisableMergeOptimization: true})
	mustInsert(t, a, 0, srcDstRule(1, "10.0.0.0/24", "0.0.0.0/0", 100, 1))
	migrateAll(t, a, 0)
	lo := srcDstRule(2, "10.0.0.0/22", "0.0.0.0/0", 10, 2)
	mustInsert(t, a, time.Second, lo)
	for step, migrate := range []bool{false, true} {
		if migrate {
			migrateAll(t, a, 2*time.Second)
		}
		lo.Action.Port += 10
		if _, err := a.Modify(3*time.Second, lo); err != nil {
			t.Fatal(err)
		}
		mustBeExact(t, a, fmt.Sprintf("step %d: after the modify", step))
		if rep := a.Reconcile(4 * time.Second); !rep.Clean() {
			t.Errorf("step %d: Reconcile found %v to repair after a clean modify", step, rep)
		}
		mustBeExact(t, a, fmt.Sprintf("step %d: after Reconcile", step))
	}
}

// TestFragmentMigrationAllOrNothing: under the fragment ablation a cut rule
// migrates with every fragment or with none. When the main table has room
// for only some of them the rule stays in the shadow table, exactly as the
// merged migration leaves a rule the main table cannot take; once a slot
// frees up the next migration moves all of it.
func TestFragmentMigrationAllOrNothing(t *testing.T) {
	const anySrc = "0.0.0.0/0"
	prof := *tcam.Pica8P3290
	prof.Capacity = 16
	a, err := core.New(tcam.NewSwitch("small", &prof), core.Config{
		Guarantee:                5 * time.Millisecond,
		TrackLogical:             true,
		DisableRateLimit:         true,
		DisableLowPriorityBypass: true,
		DisableMergeOptimization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.ShadowSize() != 8 {
		t.Fatalf("shadow table holds %d entries, want 8 of 16", a.ShadowSize())
	}
	mustInsert(t, a, 0, srcDstRule(1, "10.0.0.0/24", anySrc, 100, 1))
	for i := 2; i <= 7; i++ {
		mustInsert(t, a, 0, srcDstRule(classifier.RuleID(100+i), fmt.Sprintf("10.%d.0.0/24", i), anySrc, 50, i))
	}
	migrateAll(t, a, 0)
	if occ := a.MainOccupancy(); occ != 7 {
		t.Fatalf("main table holds %d entries, want 7 of 8", occ)
	}
	if parts := mustInsert(t, a, time.Second, srcDstRule(2, "10.0.0.0/22", anySrc, 10, 2)); parts != 2 {
		t.Fatalf("rule 2 installed as %d fragments, want 2", parts)
	}
	a.Advance(a.ForceMigration(2 * time.Second))
	if shadow, main := a.ShadowOccupancy(), a.MainOccupancy(); shadow != 2 || main != 7 {
		t.Errorf("after the migration: shadow %d, main %d entries; want rule 2's 2 fragments left in the shadow table", shadow, main)
	}
	mustBeExact(t, a, "main table one slot short")
	if rep := a.Reconcile(3 * time.Second); !rep.Clean() {
		t.Errorf("Reconcile found %v to repair", rep)
	}
	mustBeExact(t, a, "after Reconcile")

	if _, err := a.Delete(4*time.Second, 107); err != nil {
		t.Fatal(err)
	}
	migrateAll(t, a, 5*time.Second)
	if occ := a.MainOccupancy(); occ != 8 {
		t.Errorf("main table holds %d entries, want rule 2's fragments beside the 6 left", occ)
	}
	mustBeExact(t, a, "both fragments migrated")
}
