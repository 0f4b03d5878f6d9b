package core_test

// The Gate Keeper cuts against the main table's own index — there is no
// agent-side copy of it — and a main-resident rule is whatever physical
// entries its partIDs name. Both are checked here against the exact
// monolithic-table checker.

import (
	"fmt"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
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

// mustBeExact proves the carved pipeline equal to one monolithic TCAM and
// the physical tables equal to the agent's desired state.
func mustBeExact(t *testing.T, a *core.Agent, when string) {
	t.Helper()
	if err := a.CheckConsistency(); err != nil {
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
// drop its partition record and un-merge the shadow rules those fragments
// had cut (Fig. 6) — not look for an entry under the original's ID.
func TestDeleteOfFragmentMigratedRule(t *testing.T) {
	const pkt = 0x0A000105 // 10.0.1.5: inside rules 2 and 3, outside rule 1
	for _, withDependent := range []bool{false, true} {
		t.Run(fmt.Sprintf("withDependent=%v", withDependent), func(t *testing.T) {
			a := tableAgent(t, core.Config{DisableMergeOptimization: true})
			mustInsert(t, a, 0, srcDstRule(1, "10.0.0.0/24", "0.0.0.0/0", 100, 1))
			migrateAll(t, a, 0)
			mustBeExact(t, a, "rule 1 migrated")
			if parts := mustInsert(t, a, time.Second, srcDstRule(2, "10.0.0.0/22", "0.0.0.0/0", 10, 2)); parts != 2 {
				t.Fatalf("rule 2 installed as %d fragments, want 2", parts)
			}
			migrateAll(t, a, time.Second)
			mustBeExact(t, a, "rule 2 migrated as fragments")
			if occ := a.MainOccupancy(); occ != 3 {
				t.Fatalf("main table holds %d entries, want rule 1 and two fragments", occ)
			}
			if withDependent {
				// Cut by rule 1 and by rule 2's fragments; only what lies outside
				// the /22 is installed.
				mustInsert(t, a, 2*time.Second, srcDstRule(3, "10.0.0.0/21", "0.0.0.0/0", 5, 3))
				mustBeExact(t, a, "rule 3 cut against the fragments")
			}

			if _, err := a.Delete(3*time.Second, 2); err != nil {
				t.Fatal(err)
			}
			if occ := a.MainOccupancy(); occ != 1 {
				t.Errorf("main table holds %d entries after the delete, want rule 1 alone", occ)
			}
			mustBeExact(t, a, "rule 2 deleted")
			got, ok := a.Lookup(pkt, 0)
			if withDependent {
				if !ok || got.Action.Port != 3 {
					t.Errorf("10.0.1.5 resolves to %v %v after the delete, want rule 3's action", got, ok)
				}
			} else if ok {
				t.Errorf("10.0.1.5 still matches %v after rule 2 was deleted", got)
			}
		})
	}
}

// TestModifyActionReachesRecordedFragments: an action-only Modify of a cut
// rule rewrites the fragments the partition map holds as well as the TCAM
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
