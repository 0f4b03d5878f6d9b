package core

// Crash-recovery tests: migrations interrupted at each of the four Fig.-7
// steps, switch power-cycles, truncated and silently-dropped TCAM writes —
// each followed by a Reconcile that must restore byte-equivalence between
// the agent's view and the physical tables, and lookup equivalence against
// the reference monolithic table.

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/tcam"
)

// assertEquivalent probes the carved pipeline against the reference
// monolithic table with 300 seeded packets (biased toward installed rules).
func assertEquivalent(t *testing.T, a *Agent, seed int64, label string) {
	t.Helper()
	rr := rand.New(rand.NewSource(seed))
	logical := a.LogicalRules()
	for k := 0; k < 300; k++ {
		var dst uint32
		if len(logical) > 0 && rr.Intn(4) != 0 {
			pick := logical[rr.Intn(len(logical))].Match.Dst
			dst = pick.Addr | (rr.Uint32() & ^pick.Mask())
		} else {
			dst = rr.Uint32()
		}
		want, wok := a.LogicalLookup(dst, 0)
		got, gok := a.Lookup(dst, 0)
		if wok != gok || (wok && got.Action != want.Action) {
			t.Fatalf("%s: pkt %08x: lookup %v(%v) want %v(%v)", label, dst, got, gok, want, wok)
		}
	}
}

func mustInsert(t *testing.T, a *Agent, now time.Duration, r classifier.Rule) Result {
	t.Helper()
	res, err := a.Insert(now, r)
	if err != nil {
		t.Fatalf("insert %v: %v", r, err)
	}
	return res
}

// seedMixedAgent builds an agent with rules in both tables: a blocker
// migrated to main, an overlapping lower-priority rule fragmented in the
// shadow table, plus disjoint unfragmented shadow rules.
func seedMixedAgent(t *testing.T, cfg Config) (*Agent, time.Duration) {
	t.Helper()
	cfg.DisableRateLimit = true
	cfg.DisableLowPriorityBypass = true
	a := newTestAgent(t, cfg)
	now := time.Duration(0)
	mustInsert(t, a, now, dstRule(1, "192.168.1.0/26", 50, 1))
	if end := a.ForceMigration(now + time.Millisecond); end != 0 {
		now = end
	}
	a.Advance(now)
	now += time.Millisecond
	// Overlaps the migrated blocker with lower priority: Algorithm 1 cuts it.
	res := mustInsert(t, a, now, dstRule(2, "192.168.1.0/24", 5, 2))
	if res.Partitions < 2 {
		t.Fatalf("rule 2 partitions = %d, want a cut rule", res.Partitions)
	}
	now += time.Millisecond
	mustInsert(t, a, now, dstRule(3, "10.0.0.0/8", 20, 3))
	now += time.Millisecond
	mustInsert(t, a, now, dstRule(4, "172.16.0.0/12", 30, 4))
	now += time.Millisecond
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("seed state inconsistent: %v", err)
	}
	return a, now
}

// TestMigrationInterruptAtEachStep cuts a migration off at every Fig.-7
// step, on both the merged and the fragment (ablation) paths, and verifies
// Reconcile restores table- and lookup-equivalence.
func TestMigrationInterruptAtEachStep(t *testing.T) {
	steps := []MigrationStep{StepCopy, StepOptimize, StepInsert, StepEmpty}
	for _, frag := range []bool{false, true} {
		for _, step := range steps {
			for trigger := 1; trigger <= 2; trigger++ {
				name := step.String()
				if frag {
					name = "fragments/" + name
				}
				if trigger > 1 {
					name += "/second-boundary"
				}
				t.Run(name, func(t *testing.T) {
					testInterruptAt(t, step, frag, trigger)
				})
			}
		}
	}
}

func testInterruptAt(t *testing.T, step MigrationStep, frag bool, trigger int) {
	a, now := seedMixedAgent(t, Config{DisableMergeOptimization: frag})
	// One-shot hook: fire on the trigger-th boundary check for the target
	// step, so the interruption also lands mid-way through the apply loop.
	hits := 0
	armed := true
	a.SetMigrationInterrupt(func(s MigrationStep, _ time.Duration) bool {
		if !armed || s != step {
			return false
		}
		hits++
		if hits == trigger {
			armed = false
			return true
		}
		return false
	})

	before := a.Metrics()
	end := a.ForceMigration(now)
	switch step {
	case StepCopy, StepOptimize:
		// Steps 1–2 run on the snapshot before anything physical happens:
		// the migration must abort cleanly and leave the tables untouched.
		if trigger > 1 {
			t.Skip("copy/optimize are single boundaries")
		}
		if end != 0 {
			t.Fatalf("migration started despite %v interrupt", step)
		}
		if got := a.Metrics().MigrationAborts - before.MigrationAborts; got != 1 {
			t.Fatalf("MigrationAborts delta = %d, want 1", got)
		}
		if a.NeedsReconcile() {
			t.Fatal("clean abort must not require reconcile")
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatalf("after clean abort: %v", err)
		}
	case StepInsert, StepEmpty:
		if end == 0 {
			t.Fatal("migration did not start")
		}
		now = end
		a.Advance(now) // applies steps 3–4 and hits the interrupt
		if got := a.Metrics().MigrationInterrupts - before.MigrationInterrupts; got != 1 {
			t.Fatalf("MigrationInterrupts delta = %d, want 1", got)
		}
		if !a.NeedsReconcile() {
			t.Fatal("interrupted apply must mark the agent for reconcile")
		}
	}
	a.SetMigrationInterrupt(nil)

	now += time.Millisecond
	a.Reconcile(now)
	if a.NeedsReconcile() {
		t.Fatal("Reconcile left NeedsReconcile set")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("after reconcile: %v", err)
	}
	assertEquivalent(t, a, 42, "after reconcile")

	// The agent must keep working: more inserts, then a full migration.
	now += time.Millisecond
	mustInsert(t, a, now, dstRule(9, "192.168.2.0/24", 15, 9))
	if end := a.ForceMigration(now + time.Millisecond); end != 0 {
		now = end
		a.Advance(now)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("after follow-up migration: %v", err)
	}
	assertEquivalent(t, a, 43, "after follow-up migration")
}

// TestCrashRestartReconcile power-cycles the switch mid-migration: every
// physical entry vanishes, and Reconcile must reinstall the agent's entire
// desired state from software.
func TestCrashRestartReconcile(t *testing.T) {
	run := func() (*Agent, ReconcileReport) {
		a, now := seedMixedAgent(t, Config{})
		end := a.ForceMigration(now)
		if end == 0 {
			t.Fatal("migration did not start")
		}
		// Crash strictly before the background copy completes.
		a.CrashRestart(now + (end-now)/2)
		if !a.NeedsReconcile() {
			t.Fatal("crash must mark the agent for reconcile")
		}
		if a.ShadowOccupancy() != 0 || a.MainOccupancy() != 0 {
			t.Fatalf("crash left entries: shadow=%d main=%d", a.ShadowOccupancy(), a.MainOccupancy())
		}
		if a.MigrationEndsAt() != 0 {
			t.Fatal("crash must kill the in-flight migration")
		}
		now = end + time.Millisecond
		rep := a.Reconcile(now)
		if err := a.CheckConsistency(); err != nil {
			t.Fatalf("after reconcile: %v", err)
		}
		return a, rep
	}
	a, rep := run()
	if rep.Clean() {
		t.Fatalf("reconcile after crash found nothing to repair: %v", rep)
	}
	if rep.MainReinstalled == 0 {
		t.Fatalf("no main entries reinstalled: %v", rep)
	}
	m := a.Metrics()
	if m.SwitchRestarts != 1 || m.Reconciles != 1 {
		t.Fatalf("restarts=%d reconciles=%d, want 1/1", m.SwitchRestarts, m.Reconciles)
	}
	assertEquivalent(t, a, 7, "after crash recovery")

	// Determinism: the identical scenario reproduces identical physical
	// tables and an identical report.
	b, rep2 := run()
	if rep != rep2 {
		t.Fatalf("reports differ across identical runs: %v vs %v", rep, rep2)
	}
	if !reflect.DeepEqual(a.main.Rules(), b.main.Rules()) {
		t.Fatal("main tables differ across identical runs")
	}
	if !reflect.DeepEqual(a.shadow.Rules(), b.shadow.Rules()) {
		t.Fatal("shadow tables differ across identical runs")
	}
}

// TestTruncateReconcile models a crash during a bulk TCAM write: the shadow
// slice keeps only a prefix of its entries, leaving some rules with half
// their fragments installed.
func TestTruncateReconcile(t *testing.T) {
	a, now := seedMixedAgent(t, Config{})
	a.shadow.Truncate(1)
	a.MarkDivergent()
	if err := a.CheckConsistency(); err == nil {
		t.Fatal("truncation not visible to CheckConsistency")
	}
	rep := a.Reconcile(now)
	if rep.Clean() {
		t.Fatalf("reconcile found nothing after truncation: %v", rep)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("after reconcile: %v", err)
	}
	assertEquivalent(t, a, 11, "after truncate recovery")
}

// TestDroppedOpsReconcile models an update engine that acks writes it never
// applies: the agent's bookkeeping says installed, the hardware disagrees.
func TestDroppedOpsReconcile(t *testing.T) {
	a, now := seedMixedAgent(t, Config{})
	armed := true
	a.shadow.SetFaultHook(func(op tcam.Op, _ classifier.RuleID) tcam.OpFault {
		return tcam.OpFault{Drop: armed}
	})
	mustInsert(t, a, now, dstRule(5, "10.1.0.0/16", 40, 5))
	armed = false
	if a.shadow.DroppedOps() == 0 {
		t.Fatal("fault hook dropped nothing")
	}
	if err := a.CheckConsistency(); err == nil {
		t.Fatal("dropped write not visible to CheckConsistency")
	}
	a.MarkDivergent()
	rep := a.Reconcile(now + time.Millisecond)
	if rep.Clean() {
		t.Fatalf("reconcile found nothing after dropped ops: %v", rep)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("after reconcile: %v", err)
	}
	assertEquivalent(t, a, 13, "after dropped-op recovery")
}

// TestUnmergeAfterCrashRecovery walks the Fig. 6 path on a recovered agent:
// after a crash + Reconcile re-cuts the shadow rule, deleting the main rule
// that caused the cut must un-merge the fragments back into one entry.
func TestUnmergeAfterCrashRecovery(t *testing.T) {
	a, now := seedMixedAgent(t, Config{})
	a.CrashRestart(now)
	now += time.Millisecond
	a.Reconcile(now)
	st := a.rules[2]
	if st == nil || st.place != placeShadow || len(st.partIDs) < 2 {
		t.Fatalf("rule 2 not re-cut after recovery: %+v", st)
	}
	// Fig. 6: deleting the blocker un-merges the dependent rule.
	now += time.Millisecond
	if _, err := a.Delete(now, 1); err != nil {
		t.Fatal(err)
	}
	st = a.rules[2]
	if st == nil || len(st.partIDs) != 1 {
		t.Fatalf("rule 2 not un-merged after blocker delete: %+v", st)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("after un-merge: %v", err)
	}
	assertEquivalent(t, a, 17, "after un-merge")
}

// TestAbortMigration covers the clean-abort path: cancelling an in-flight
// copy leaves the tables exactly as they were.
func TestAbortMigration(t *testing.T) {
	a, now := seedMixedAgent(t, Config{})
	if a.AbortMigration(now) {
		t.Fatal("aborted a migration that was never started")
	}
	end := a.ForceMigration(now)
	if end == 0 {
		t.Fatal("migration did not start")
	}
	if !a.AbortMigration(now + (end-now)/2) {
		t.Fatal("abort mid-flight failed")
	}
	if a.MigrationEndsAt() != 0 {
		t.Fatal("abort left the migration in flight")
	}
	if a.NeedsReconcile() {
		t.Fatal("clean abort must not require reconcile")
	}
	a.Advance(end + time.Millisecond) // must be a no-op
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("after abort: %v", err)
	}
	assertEquivalent(t, a, 19, "after abort")
	// The snapshot stayed in the shadow table; a fresh migration completes.
	if end = a.ForceMigration(end + 2*time.Millisecond); end == 0 {
		t.Fatal("re-migration did not start")
	}
	a.Advance(end)
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("after re-migration: %v", err)
	}
}

// TestEquivalenceFixedSeedsWithFaults replays the random workload of
// equivalence_test.go with seeded fault events mixed in (crash/restart,
// truncation, migration interrupts), reconciling after each fault and
// checking lookup equivalence after every operation.
func TestEquivalenceFixedSeedsWithFaults(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		runFaultSeq(t, seed)
	}
}

func runFaultSeq(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	a := newTestAgent(t, Config{DisableRateLimit: true})
	// Seeded migration interrupts: each boundary check has a 1-in-8 chance.
	a.SetMigrationInterrupt(func(_ MigrationStep, _ time.Duration) bool {
		return r.Intn(8) == 0
	})
	now := time.Duration(0)
	var live []classifier.RuleID
	nextID := classifier.RuleID(1)
	for op := 0; op < 100; op++ {
		now += time.Duration(r.Intn(8)+1) * time.Millisecond
		switch x := r.Intn(12); {
		case x < 6:
			rule := classifier.Rule{
				ID:       nextID,
				Match:    classifier.DstMatch(classifier.NewPrefix(0xC0A80000|(r.Uint32()&0xFFFF), uint8(16+r.Intn(17)))),
				Priority: int32(r.Intn(50)),
				Action:   classifier.Action{Type: classifier.ActionForward, Port: int(nextID)},
			}
			if _, err := a.Insert(now, rule); err != nil {
				t.Fatalf("seed %d op %d insert: %v", seed, op, err)
			}
			live = append(live, nextID)
			nextID++
		case x < 8 && len(live) > 0:
			i := r.Intn(len(live))
			if _, err := a.Delete(now, live[i]); err != nil {
				t.Fatalf("seed %d op %d delete: %v", seed, op, err)
			}
			live = append(live[:i], live[i+1:]...)
		case x == 8:
			if end := a.ForceMigration(now); end != 0 && r.Intn(2) == 0 {
				now = end
				a.Advance(now)
			}
		case x == 9:
			a.CrashRestart(now)
		case x == 10:
			a.shadow.Truncate(r.Intn(4))
			a.MarkDivergent()
		default:
			if end := a.Tick(now); end != 0 {
				now = end
				a.Advance(now)
			}
		}
		if a.NeedsReconcile() {
			a.Reconcile(now)
			if err := a.CheckConsistency(); err != nil {
				t.Fatalf("seed %d op %d: reconcile left divergence: %v", seed, op, err)
			}
		}
		if err := shadowIndexErr(a); err != nil {
			t.Fatalf("seed %d op %d: %v", seed, op, err)
		}
		if a.MigrationEndsAt() == 0 && !a.NeedsReconcile() {
			// Only quiesced states are expected to be equivalent.
			probeEquivalent(t, a, seed*1000+int64(op), seed, op)
		}
	}
}

func probeEquivalent(t *testing.T, a *Agent, probeSeed, seed int64, op int) {
	t.Helper()
	rr := rand.New(rand.NewSource(probeSeed))
	logical := a.LogicalRules()
	for k := 0; k < 120; k++ {
		var dst uint32
		if len(logical) > 0 && rr.Intn(4) != 0 {
			pick := logical[rr.Intn(len(logical))].Match.Dst
			dst = pick.Addr | (rr.Uint32() & ^pick.Mask())
		} else {
			dst = rr.Uint32()
		}
		want, wok := a.LogicalLookup(dst, 0)
		got, gok := a.Lookup(dst, 0)
		if wok != gok || (wok && got.Action != want.Action) {
			t.Fatalf("seed %d op %d pkt %08x: lookup %v(%v) want %v(%v)",
				seed, op, dst, got, gok, want, wok)
		}
	}
}
