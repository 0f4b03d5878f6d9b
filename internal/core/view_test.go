package core

// Tests for the indexed lookup fast path and the agent's concurrent read
// story: twin-agent differential runs (indexed vs. the LinearLookup oracle,
// including interrupted migrations and crash recovery), snapshot
// invalidation via the table generation counters, and a -race exercise of
// readers running against the control-plane mutators.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/tcam"
)

// newTwin builds one agent of the differential pair.
func newTwin(t *testing.T, name string, linear bool, interruptSeed int64) *Agent {
	t.Helper()
	sw := tcam.NewSwitch(name, tcam.Pica8P3290)
	cfg := Config{
		Guarantee:        5 * time.Millisecond,
		TrackLogical:     true,
		DisableRateLimit: true,
		LinearLookup:     linear,
	}
	a, err := New(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if interruptSeed != 0 {
		// Deterministic interrupt schedule; both twins get the same seed so
		// their migrations are cut at identical step boundaries.
		irng := rand.New(rand.NewSource(interruptSeed))
		a.SetMigrationInterrupt(func(step MigrationStep, now time.Duration) bool {
			return irng.Intn(12) == 0
		})
	}
	return a
}

// TestIndexedLinearTwinAgents drives an indexed agent and a LinearLookup
// oracle agent through identical workloads — inserts, deletes, modifies,
// ticks, migrations interrupted mid-step, crash/restart/reconcile — and
// after every operation requires Lookup to return the identical rule (ID,
// match, priority, action — not merely the same action) on both.
func TestIndexedLinearTwinAgents(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		indexed := newTwin(t, "twin-indexed", false, seed+100)
		linear := newTwin(t, "twin-linear", true, seed+100)
		rng := rand.New(rand.NewSource(seed))
		now := time.Duration(0)
		var live []classifier.RuleID
		nextID := classifier.RuleID(1)

		apply := func(f func(a *Agent) error) {
			t.Helper()
			if err := f(indexed); err != nil {
				t.Fatalf("seed %d: indexed: %v", seed, err)
			}
			if err := f(linear); err != nil {
				t.Fatalf("seed %d: linear: %v", seed, err)
			}
		}
		probe := func(op int) {
			t.Helper()
			prng := rand.New(rand.NewSource(seed*1000 + int64(op)))
			logical := indexed.LogicalRules()
			for k := 0; k < 120; k++ {
				var dst uint32
				if len(logical) > 0 && prng.Intn(4) != 0 {
					p := logical[prng.Intn(len(logical))].Match.Dst
					dst = p.Addr | (prng.Uint32() & ^p.Mask())
				} else {
					dst = prng.Uint32()
				}
				got, gok := indexed.Lookup(dst, 0)
				want, wok := linear.Lookup(dst, 0)
				if gok != wok || got != want {
					t.Fatalf("seed %d op %d pkt %08x: indexed %v,%v linear %v,%v",
						seed, op, dst, got, gok, want, wok)
				}
				lg, lok := indexed.LogicalLookup(dst, 0)
				lw, lwok := linear.LogicalLookup(dst, 0)
				if lok != lwok || lg != lw {
					t.Fatalf("seed %d op %d pkt %08x: logical indexed %v,%v linear %v,%v",
						seed, op, dst, lg, lok, lw, lwok)
				}
			}
		}

		for op := 0; op < 90; op++ {
			now += time.Duration(rng.Intn(8)+1) * time.Millisecond
			switch x := rng.Intn(12); {
			case x < 6:
				r := classifier.Rule{
					ID:       nextID,
					Match:    classifier.DstMatch(classifier.NewPrefix(0xC0A80000|(rng.Uint32()&0xFFFF), uint8(16+rng.Intn(17)))),
					Priority: int32(rng.Intn(50)),
					Action:   classifier.Action{Type: classifier.ActionForward, Port: int(nextID)},
				}
				apply(func(a *Agent) error { _, err := a.Insert(now, r); return err })
				live = append(live, nextID)
				nextID++
			case x < 7 && len(live) > 0:
				i := rng.Intn(len(live))
				apply(func(a *Agent) error { _, err := a.Delete(now, live[i]); return err })
				live = append(live[:i], live[i+1:]...)
			case x < 8 && len(live) > 0:
				id := live[rng.Intn(len(live))]
				mod := classifier.Rule{
					ID:       id,
					Match:    classifier.DstMatch(classifier.NewPrefix(0xC0A80000|(rng.Uint32()&0xFFFF), uint8(16+rng.Intn(17)))),
					Priority: int32(rng.Intn(50)),
					Action:   classifier.Action{Type: classifier.ActionDrop},
				}
				apply(func(a *Agent) error { _, err := a.Modify(now, mod); return err })
			case x < 10:
				done := indexed.Tick(now)
				linear.Tick(now)
				if done != 0 && rng.Intn(2) == 0 {
					// Let the migration complete on both; probes below then
					// see post-migration state. Otherwise it stays in flight
					// and probes see the mid-migration state.
					now = done
					indexed.Advance(now)
					linear.Advance(now)
				}
			case x == 10:
				done := indexed.ForceMigration(now)
				linear.ForceMigration(now)
				if done != 0 && rng.Intn(2) == 0 {
					now = done
					indexed.Advance(now)
					linear.Advance(now)
				}
			default:
				apply(func(a *Agent) error {
					a.CrashRestart(now)
					a.Reconcile(now)
					return a.CheckConsistency()
				})
			}
			if indexed.NeedsReconcile() {
				apply(func(a *Agent) error { a.Reconcile(now); return a.CheckConsistency() })
			}
			probe(op)
		}
	}
}

// TestLookupSnapshotInvalidation proves the generation counters invalidate
// the lock-free snapshot even when the switch is mutated behind the agent's
// back (the chaos harness calls Switch().CrashRestart() directly).
func TestLookupSnapshotInvalidation(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true})
	r := dstRule(1, "10.0.0.0/8", 5, 1)
	if _, err := a.Insert(0, r); err != nil {
		t.Fatal(err)
	}
	// The first lookup after a write publishes; the rest ride its snapshot.
	for i := 0; i < 8; i++ {
		if got, ok := a.Lookup(0x0A000001, 0); !ok || got.ID != 1 {
			t.Fatalf("lookup %d: %v %v", i, got, ok)
		}
	}
	if a.view.Load() == nil || a.ViewPublishes() != 1 {
		t.Fatalf("8 lookups at stable generations published %d snapshots, want 1", a.ViewPublishes())
	}
	// Out-of-band wipe: the agent is not told, but the table generations
	// move, so the stale snapshot must not be trusted.
	a.Switch().CrashRestart()
	if _, ok := a.Lookup(0x0A000001, 0); ok {
		t.Fatal("lookup served a stale snapshot after out-of-band wipe")
	}
	if a.ViewPublishes() != 2 {
		t.Fatalf("the wipe cost %d publishes, want 1", a.ViewPublishes()-1)
	}
}

// TestLinearLookupConfigUsesScanPath checks the oracle configuration never
// publishes a snapshot (reads go to the live scan path).
func TestLinearLookupConfigUsesScanPath(t *testing.T) {
	sw := tcam.NewSwitch("lin", tcam.Pica8P3290)
	a, err := New(sw, Config{Guarantee: 5 * time.Millisecond, LinearLookup: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert(0, dstRule(1, "10.0.0.0/8", 5, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, ok := a.Lookup(0x0A000001, 0); !ok {
			t.Fatal("lookup missed")
		}
		a.LogicalLookup(0x0A000001, 0)
	}
	if a.view.Load() != nil || a.ViewPublishes() != 0 {
		t.Fatal("LinearLookup agent published a snapshot")
	}
}

// TestConcurrentReadersUnderMutation exercises every reader against the
// control-plane mutators for the race detector: lookups (fast and slow
// path), logical lookups, metrics, occupancies, consistency checks — all
// while rules churn, migrations run, and the switch crash-restarts.
func TestConcurrentReadersUnderMutation(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true})
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				dst := 0xC0A80000 | (rng.Uint32() & 0xFFFF)
				a.Lookup(dst, 0)
				a.LogicalLookup(dst, 0)
				switch rng.Intn(8) {
				case 0:
					a.Metrics()
				case 1:
					a.ShadowOccupancy()
					a.MainOccupancy()
				case 2:
					a.MigrationEndsAt()
					a.NeedsReconcile()
				case 3:
					a.CurrentSlack()
				}
			}
		}(int64(g))
	}

	rng := rand.New(rand.NewSource(99))
	now := time.Duration(0)
	var live []classifier.RuleID
	nextID := classifier.RuleID(1)
	for op := 0; op < 4000; op++ {
		now += time.Millisecond
		switch x := rng.Intn(12); {
		case x < 7:
			r := classifier.Rule{
				ID:       nextID,
				Match:    classifier.DstMatch(classifier.NewPrefix(0xC0A80000|(rng.Uint32()&0xFFFF), uint8(16+rng.Intn(17)))),
				Priority: int32(rng.Intn(50)),
				Action:   classifier.Action{Type: classifier.ActionForward, Port: int(nextID)},
			}
			if _, err := a.Insert(now, r); err != nil {
				t.Fatal(err)
			}
			live = append(live, nextID)
			nextID++
		case x < 9 && len(live) > 0:
			i := rng.Intn(len(live))
			if _, err := a.Delete(now, live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		case x < 10:
			a.Tick(now)
		case x == 10:
			if end := a.ForceMigration(now); end != 0 {
				now = end
				a.Advance(now)
			}
		default:
			a.CrashRestart(now)
			a.Reconcile(now)
		}
	}
	close(stop)
	wg.Wait()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestPublishCostIndependentOfOccupancy pins what a write costs the reader
// beside it: the lookup that follows a write publishes a snapshot by freezing
// the tiers that moved, so a write-then-read cycle allocates the index paths
// the writes copied plus one agentView per publish — the same at 200
// installed rules and at 4000, whether the write landed in the shadow table
// or (a §4.2 bypass) in the main table that holds them all. Several lookups
// follow each write, so a design that only defers an O(occupancy) rebuild by
// a few reads fails here too.
func TestPublishCostIndependentOfOccupancy(t *testing.T) {
	cycleAllocs := func(installed int) float64 {
		prof := *tcam.Pica8P3290
		prof.Capacity = 8192
		a, err := New(tcam.NewSwitch("publish", &prof), Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true})
		if err != nil {
			t.Fatal(err)
		}
		now := time.Duration(0)
		settle := func() {
			if end := a.Tick(now); end != 0 {
				now = end
				a.Advance(now)
			}
		}
		for i := 0; i < installed; i++ {
			r := classifier.Rule{
				ID:       classifier.RuleID(i + 1),
				Match:    classifier.DstMatch(classifier.NewPrefix(0x0A000000|uint32(i)<<8, 24)),
				Priority: 1,
				Action:   classifier.Action{Type: classifier.ActionForward, Port: i},
			}
			now += time.Millisecond
			mustInsert(t, a, now, r)
			if i%64 == 63 {
				settle()
			}
		}
		settle()
		if a.ShadowOccupancy() != 0 || a.MainOccupancy() != installed {
			t.Fatalf("set-up left %d shadow / %d main entries, want 0 / %d", a.ShadowOccupancy(), a.MainOccupancy(), installed)
		}
		// The probe rules overlap nothing installed, so they are never cut.
		probes := []struct {
			rule classifier.Rule
			path InsertPath
			pkt  uint32
		}{
			{dstRule(1<<20, "192.168.7.0/24", 9, 7), PathShadow, 0xC0A80701},
			{dstRule(1<<20+1, "192.168.8.0/24", 0, 8), PathBypass, 0xC0A80801},
		}
		cycle := func() {
			for _, p := range probes {
				now += time.Millisecond
				if res, err := a.Insert(now, p.rule); err != nil || res.Path != p.path {
					t.Fatalf("insert of rule %d took path %v (err %v), want %v", p.rule.ID, res.Path, err, p.path)
				}
				for k := 0; k < 5; k++ {
					if r, ok := a.Lookup(p.pkt, 0); !ok || r.ID != p.rule.ID {
						t.Fatalf("lookup after insert: %v %v", r, ok)
					}
				}
				if _, err := a.Delete(now, p.rule.ID); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 5; k++ {
					if r, ok := a.Lookup(p.pkt, 0); ok {
						t.Fatalf("lookup after delete: %v", r)
					}
				}
			}
		}
		cycle() // warm: first snapshot, freelists
		return testing.AllocsPerRun(20, cycle)
	}
	small, large := cycleAllocs(200), cycleAllocs(4000)
	if small != large {
		t.Errorf("write-then-read cycle allocates %.0f times at 200 rules, %.0f at 4000: publishing must cost what changed", small, large)
	}
	// Four publishes (one agentView each) and four writes that each copy at
	// most the 25 index nodes, and their entries, on a /24's path.
	if bound := float64(4 + 4*2*25); large > bound {
		t.Errorf("write-then-read cycle allocates %.0f times, want ≤ %.0f (four snapshots plus four copied paths)", large, bound)
	}
}

// TestReadersSeeWholeFlowMods holds the read path to the flow-mod boundary.
// The writer keeps a generation of shadow rules — 10.0.0.0/9, action port
// 500, each outranking the last — above a main-table /8 (port 1) and drives
// everything that rewrites more than one physical entry per flow-mod around
// them: unguarded main-table inserts that re-cut the shadow rule into new
// fragments, their deletes, ApplyBatches of both, and migrations that carry
// the generation into the main table. The probed packet lies in the /9 and
// in none of the cutting rules, so its logical winner's action is port 500
// throughout: a reader that ever sees a miss or the /8 looked between two
// steps of one flow-mod. A fourth reader holds one published view across at
// least 100 writer ops and re-probes it: a snapshot answers as it did when
// it was frozen, whatever the tables did since.
func TestReadersSeeWholeFlowMods(t *testing.T) {
	a, err := New(tcam.NewSwitch("whole", tcam.Pica8P3290), Config{
		Guarantee:                5 * time.Millisecond,
		DisableRateLimit:         true,
		DisableLowPriorityBypass: true,
		Predicate:                func(r classifier.Rule) bool { return r.Priority < 1000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	const pkt = 0x0A000001 // 10.0.0.1
	now := time.Duration(0)
	migrate := func() {
		if end := a.ForceMigration(now); end != 0 {
			now = end
			a.Advance(now)
		}
	}
	mustInsert(t, a, now, dstRule(1, "10.0.0.0/8", 1, 1))
	migrate()
	gen := 0
	newGeneration := func() {
		if prio := int32(100 + gen); prio < 1000 { // stay guarded
			mustInsert(t, a, now, dstRule(classifier.RuleID(100000+gen), "10.0.0.0/9", prio, 500))
			gen++
		}
	}
	newGeneration()

	var (
		ops  atomic.Int64 // writer ops applied
		wg   sync.WaitGroup
		stop = make(chan struct{})
		errs = make(chan error, 4) // one slot per reader
	)
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped() {
				if r, ok := a.Lookup(pkt, 0); !ok || r.Action.Port != 500 {
					errs <- fmt.Errorf("after %d writer ops: lookup = %v,%v, want the /9's action", ops.Load(), r, ok)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The cutting rules live under 10.64.0.0/10: their packets resolve
		// differently as the writer goes, which a held view must not notice.
		pkts := [...]uint32{pkt, 0x0A400001, 0x0A400101, 0x0A400201, 0x0A400301, 0x0A7FFFFF, 0x0B000001}
		for !stopped() {
			a.Lookup(pkt, 0)
			v, heldAt := a.view.Load(), ops.Load()
			var want [len(pkts)]classifier.Rule
			for i, p := range pkts {
				want[i], _ = v.lookup(p, 0)
			}
			for ops.Load() < heldAt+100 && !stopped() {
				runtime.Gosched()
			}
			for i, p := range pkts {
				if got, _ := v.lookup(p, 0); got != want[i] {
					errs <- fmt.Errorf("view held from op %d to op %d: packet %08x resolved to %v, now %v", heldAt, ops.Load(), p, want[i], got)
					return
				}
			}
		}
	}()

	// Cutting rules: /24s under 10.64.0.0/10, priority ≥ 1000 (unguarded,
	// straight to the main table), none containing 10.0.0.1.
	cutter := func(i int) classifier.Rule {
		r := dstRule(classifier.RuleID(1000+i%24), "10.64.0.0/24", int32(1000+i%7), 2)
		r.Match.Dst = classifier.NewPrefix(0x0A400000|uint32(i%24)<<8, 24)
		return r
	}
	installed := map[classifier.RuleID]bool{}
	toggle := func(i int) BatchOp {
		r := cutter(i)
		if installed[r.ID] {
			delete(installed, r.ID)
			return BatchOp{Kind: BatchDelete, Rule: r}
		}
		installed[r.ID] = true
		return BatchOp{Kind: BatchInsert, Rule: r}
	}
	rng := rand.New(rand.NewSource(5))
	var results []BatchResult
	for i := 0; i < 3000 && len(errs) == 0; i++ {
		now += 100 * time.Microsecond
		switch x := rng.Intn(20); {
		case x < 12:
			op := toggle(rng.Intn(1 << 16))
			if op.Kind == BatchInsert {
				_, err = a.Insert(now, op.Rule)
			} else {
				_, err = a.Delete(now, op.Rule.ID)
			}
			if err != nil {
				t.Fatal(err)
			}
		case x < 17:
			batch := make([]BatchOp, 1+rng.Intn(6))
			for j := range batch {
				batch[j] = toggle(rng.Intn(1 << 16))
			}
			results = a.ApplyBatch(now, batch, results)
			for j, res := range results {
				if res.Err != nil {
					t.Fatalf("batch op %d (%+v): %v", j, batch[j], res.Err)
				}
			}
		case x < 19:
			migrate()
		default:
			newGeneration()
		}
		if a.ShadowOccupancy() == 0 {
			newGeneration() // keep a shadow rule for the cutters to re-cut
		}
		ops.Add(1)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m := a.Metrics(); m.Repartitions == 0 || m.Migrations == 0 {
		t.Fatalf("scenario drifted: %d re-cuts, %d migrations, want both", m.Repartitions, m.Migrations)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
