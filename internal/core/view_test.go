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
	"hermes/internal/rulecache"
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
// path, flow-cache hits and fills), logical lookups, metrics, occupancies,
// consistency checks — all while rules churn, migrations run, and the
// switch crash-restarts. The cached agent adds the software tier and its
// hit map to every snapshot a lookup publishes, so a view stored before
// those are filled races here.
func TestConcurrentReadersUnderMutation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"uncached", Config{DisableRateLimit: true}},
		{"cached", Config{DisableRateLimit: true,
			Cache: &rulecache.Config{Capacity: 64, Policy: rulecache.PolicyLFU}}},
	} {
		t.Run(tc.name, func(t *testing.T) { readersUnderMutation(t, tc.cfg) })
	}
}

func readersUnderMutation(t *testing.T, cfg Config) {
	a := newTestAgent(t, cfg)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// The readers share 64 packets, so flow-cache hits, fills and
	// publishes race on the same slots.
	var pkts [64]uint32
	prng := rand.New(rand.NewSource(64))
	for i := range pkts {
		pkts[i] = 0xC0A80000 | (prng.Uint32() & 0xFFFF)
	}
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
				dst := pkts[rng.Intn(len(pkts))]
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
	// Four publishes (one agentView each), and the two deletes' path copies:
	// a copied path holds only the branch points and rule-bearing prefixes
	// above the probe, here at most two nodes, each with its entries. The
	// inserts reuse the nodes the deletes unlinked. The main table's stride
	// tables add nothing: the bypass probe hangs off a /0 branch node that
	// the insert splits in above the installed pool and the delete merges
	// away again, so the pool's tables are not on its path and no write
	// copies one (each write changes the tables above what it changed, at
	// most one per level).
	if bound := float64(4 + 2*2*2); large > bound {
		t.Errorf("write-then-read cycle allocates %.0f times, want ≤ %.0f (four snapshots plus two copied paths)", large, bound)
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
				want[i], _ = v.flowLookup(p, 0).Rule()
			}
			for ops.Load() < heldAt+100 && !stopped() {
				runtime.Gosched()
			}
			for i, p := range pkts {
				if got, _ := v.flowLookup(p, 0).Rule(); got != want[i] {
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

// TestFlowCacheReplaysTierStats holds the flow cache to the walk it
// caches. Twin cached agents take the same writes, ticks and Zipf packet
// stream (three sources per destination, so slots are shared); one reads
// through Agent.Lookup, the flow cache in front, the other calls lookupTier
// on its published view, the walk alone. Every answer agrees, and after
// every tick so do the cache manager's records — the per-tier hit and miss
// counts and the promotions, demotions and cover installs the sampled hits
// drove: a flow-cache hit replays what its tier's walk recorded.
func TestFlowCacheReplaysTierStats(t *testing.T) {
	var twins [2]*Agent
	for i := range twins {
		a, err := New(tcam.NewSwitch("replay", tcam.Pica8P3290), Config{Guarantee: 5 * time.Millisecond,
			DisableRateLimit: true, Cache: &rulecache.Config{Capacity: 60, Policy: rulecache.PolicyLFU}})
		if err != nil {
			t.Fatal(err)
		}
		twins[i] = a
	}
	now := time.Duration(0)
	both := func(f func(a *Agent)) {
		for _, a := range twins {
			f(a)
		}
	}
	tick := func() {
		now += 10 * time.Millisecond
		both(func(a *Agent) {
			if end := a.Tick(now); end != 0 {
				a.Advance(end)
			}
		})
	}
	rule := func(i int) classifier.Rule {
		p := classifier.NewPrefix(0x0A000000|uint32(i/10)<<16|uint32(i%10)<<8, 24)
		prio := 2 + int32(i%5)
		if i >= 600 { // the /16 above /24s i-600 .. i-591
			p, prio = classifier.NewPrefix(0x0A000000|uint32(i-600)/10<<16, 16), 1
		}
		return classifier.Rule{ID: classifier.RuleID(i + 1), Match: classifier.DstMatch(p), Priority: prio,
			Action: classifier.Action{Type: classifier.ActionForward, Port: i + 1}}
	}
	for i := 0; i < 600; i++ {
		now += time.Millisecond
		both(func(a *Agent) { mustInsert(t, a, now, rule(i)) })
		if i%10 == 9 {
			both(func(a *Agent) { mustInsert(t, a, now, rule(600+i-9)) })
			tick()
		}
	}
	// Packet k falls in /16 number k/11 (none from 60 on: a miss) and in
	// its /24 number k%11 (none for 10: the /16 alone).
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.1, 1, 719)
	for round := 0; round < 40; round++ {
		for j := 0; j < 4; j++ { // lookup_churn's writes: delete, re-insert
			i := rng.Intn(600)
			now += time.Millisecond
			both(func(a *Agent) {
				if _, err := a.Delete(now, rule(i).ID); err != nil {
					t.Fatal(err)
				}
				mustInsert(t, a, now, rule(i))
			})
		}
		for j := 0; j < 3000; j++ {
			k := uint32(zipf.Uint64())
			dst, src := 0x0A000001|k/11<<16|k%11<<8, uint32(rng.Intn(3))
			got, gok := twins[0].Lookup(dst, src)
			h, _ := twins[1].publishView().lookupTier(dst, src)
			if w, wok := h.Rule(); gok != wok || got != w {
				t.Fatalf("round %d: packet %08x/%d: flow cache %v(%v), walk %v(%v)", round, dst, src, got, gok, w, wok)
			}
		}
		tick()
		if got, want := twins[0].CacheStats(), twins[1].CacheStats(); got != want {
			t.Fatalf("round %d: cache stats through the flow cache\n%+v\nthrough the walk\n%+v", round, got, want)
		}
	}
	s := twins[0].CacheStats()
	if s.HWHits == 0 || s.SoftHits == 0 || s.Misses == 0 || s.Promotions == 0 || s.Demotions == 0 || s.CoverInstalls == 0 {
		t.Fatalf("scenario drifted: %+v, want every tier hit and every tier move", s)
	}
}

// newLookupAgent builds an agent for the read-path pins: 2 000 /24 rules
// under 200 /16s that each overlap ten of them at a lower priority, in
// cached mode at 10 % capacity and ranked after one Zipf burst, plus 4 096
// Zipf-drawn packets (hits on every tier, and misses), with the view the
// packets read published.
func newLookupAgent(tb testing.TB, cached bool) (*Agent, []uint32) {
	cfg := Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true}
	if cached {
		cfg.Cache = &rulecache.Config{Capacity: 220, Policy: rulecache.PolicyLFU}
	}
	a, err := New(tcam.NewSwitch("lookup", tcam.Pica8P3290), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	now := time.Duration(0)
	insert := func(id int, p classifier.Prefix, prio int32) {
		now += time.Millisecond
		r := classifier.Rule{ID: classifier.RuleID(id), Match: classifier.DstMatch(p), Priority: prio,
			Action: classifier.Action{Type: classifier.ActionForward, Port: id}}
		if _, err := a.Insert(now, r); err != nil {
			tb.Fatal(err)
		}
		if end := a.Tick(now); end != 0 {
			a.Advance(end)
		}
	}
	for i := 0; i < 2000; i++ {
		insert(i+1, classifier.NewPrefix(0x0A000000|uint32(i/10)<<16|uint32(i%10)<<8, 24), 2+int32(i%5))
		if i%10 == 9 {
			insert(5001+i/10, classifier.NewPrefix(0x0A000000|uint32(i/10)<<16, 16), 1)
		}
	}
	// Packet k falls in /16 number k/11 (none from 200 on: a miss) and in
	// its /24 number k%11 (none for 10: the /16 alone).
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, 2399)
	pkts := make([]uint32, 4096)
	for i := range pkts {
		k := uint32(zipf.Uint64())
		pkts[i] = 0x0A000001 | k/11<<16 | k%11<<8
	}
	for _, p := range pkts {
		a.Lookup(p, 0)
	}
	if cached {
		now += 10 * time.Millisecond
		a.Rebalance(now)
	}
	a.Lookup(pkts[0], 0) // publish the view the packets read
	return a, pkts
}

// slotOwners returns up to 256 of the packets, each alone in its flow-cache
// slot among them, in the order the packets first reach one: read with
// source 0 after one pass fills their slots, every lookup is a hit.
func slotOwners(a *Agent, pkts []uint32) []uint32 {
	var owners []uint32
	taken := map[*flowSlot]bool{}
	for _, p := range pkts {
		if sl, _ := a.view.Load().flows.slot(p, 0); !taken[sl] && len(owners) < 256 {
			taken[sl] = true
			owners = append(owners, p)
		}
	}
	return owners
}

// TestAgentLookupAllocs pins Agent.Lookup on a published view at zero
// allocations, uncached and cached, both when it fills a flow-cache slot
// (each packet's source is new, so each lookup is the pair's first) and
// when it hits one.
func TestAgentLookupAllocs(t *testing.T) {
	for _, cached := range []bool{false, true} {
		a, pkts := newLookupAgent(t, cached)
		owners := slotOwners(a, pkts)
		src := uint32(0)
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"fill", func() {
				for _, p := range pkts {
					src++
					a.Lookup(p, src)
				}
			}},
			{"hit", func() {
				for _, p := range owners {
					a.Lookup(p, 0)
				}
			}},
		} {
			if n := testing.AllocsPerRun(20, c.run); n != 0 {
				t.Errorf("cached=%v, %s: one pass of lookups allocates %.0f times, want 0", cached, c.name, n)
			}
		}
	}
}

// BenchmarkAgentLookup times one Agent.Lookup of newLookupAgent's packets
// on its published view, uncached and cached: the whole read path, from
// the view's generation checks through the flow cache and the snapshot
// walks to the rule copied out. hit cycles through 256 packets that own
// their flow-cache slots, so every lookup reads one slot; miss gives each
// of the 4 096 packets its own source, four times as many pairs as the
// cache has slots, so nearly every lookup walks and fills.
func BenchmarkAgentLookup(b *testing.B) {
	for _, mode := range []struct {
		name   string
		cached bool
	}{{"uncached", false}, {"cached", true}} {
		a, pkts := newLookupAgent(b, mode.cached)
		owners := slotOwners(a, pkts)
		b.Run(mode.name+"/hit", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Lookup(owners[i%len(owners)], 0)
			}
		})
		b.Run(mode.name+"/miss", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i & (len(pkts) - 1)
				a.Lookup(pkts[j], uint32(j))
			}
		})
	}
}
