package core

// Tests for the vectored entry point (core/batch.go): a differential replay
// proving ApplyBatch and the per-op entry points are result-identical on the
// same seeded schedule under every Gate Keeper divert, an in-batch ordering
// check, and the steady-state 0 allocs/op contract of the one insert path.

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/tcam"
)

// newBatchTwin builds one agent of the batched-vs-per-op differential
// pair.
func newBatchTwin(t *testing.T, name string, cfg Config) *Agent {
	t.Helper()
	cfg.TrackLogical = true
	a, err := New(tcam.NewSwitch(name, tcam.Pica8P3290), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestBatchPerOpDifferential replays the same seeded schedule through a
// per-op agent and a batched agent (ApplyBatch) and requires identical
// per-op results, identical packet lookups after every batch, and identical
// final rule sets. Each config steers the stream into one Gate Keeper
// decision — the token bucket, a full shadow table, the §4.2 bypass on and
// off — and must show, summed over its seeds, that it got there.
func TestBatchPerOpDifferential(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		reached func(Metrics) int
	}{
		{"shadow installs, cuts and bypasses", Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true},
			func(m Metrics) int { return min(m.ShadowInserts, m.RulesCut, m.Bypasses) }},
		{"rate limit on", Config{Guarantee: 5 * time.Millisecond},
			func(m Metrics) int { return m.RateLimited }},
		{"shadow table fills", Config{Guarantee: time.Millisecond, DisableRateLimit: true},
			func(m Metrics) int { return m.ShadowFull }},
		{"bypass off", Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true, DisableLowPriorityBypass: true},
			func(m Metrics) int { return m.Inserts - m.Bypasses }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reached := 0
			for seed := int64(0); seed < 10; seed++ {
				m := batchPerOpDifferential(t, seed, tc.cfg)
				if tc.cfg.DisableLowPriorityBypass && m.Bypasses != 0 {
					t.Fatalf("seed %d: %d bypasses with the bypass disabled", seed, m.Bypasses)
				}
				reached += tc.reached(m)
			}
			if reached == 0 {
				t.Fatalf("no op of any seed took the path this config is named for")
			}
		})
	}
}

// batchPerOpDifferential runs one seed of the differential and returns the
// batched twin's counters (the per-op twin's are required to be equal).
func batchPerOpDifferential(t *testing.T, seed int64, cfg Config) Metrics {
	t.Helper()
	perOp := newBatchTwin(t, "twin-perop", cfg)
	batched := newBatchTwin(t, "twin-batched", cfg)
	rng := rand.New(rand.NewSource(seed))
	now := time.Duration(0)
	var live []classifier.RuleID
	nextID := classifier.RuleID(1)
	var out []BatchResult

	for round := 0; round < 50; round++ {
		now += time.Duration(rng.Intn(8)+1) * time.Millisecond
		n := rng.Intn(32) + 1
		ops := make([]BatchOp, 0, n)
		for k := 0; k < n; k++ {
			switch x := rng.Intn(10); {
			case x < 6:
				ops = append(ops, BatchOp{Kind: BatchInsert, Rule: classifier.Rule{
					ID:       nextID,
					Match:    classifier.DstMatch(classifier.NewPrefix(0xC0A80000|(rng.Uint32()&0xFFFF), uint8(16+rng.Intn(17)))),
					Priority: int32(rng.Intn(50)),
					Action:   classifier.Action{Type: classifier.ActionForward, Port: int(nextID)},
				}})
				live = append(live, nextID)
				nextID++
			case x < 8 && len(live) > 0:
				i := rng.Intn(len(live))
				ops = append(ops, BatchOp{Kind: BatchDelete, Rule: classifier.Rule{ID: live[i]}})
				live = append(live[:i], live[i+1:]...)
			case x == 8 && len(live) > 0:
				ops = append(ops, BatchOp{Kind: BatchModify, Rule: classifier.Rule{
					ID:       live[rng.Intn(len(live))],
					Match:    classifier.DstMatch(classifier.NewPrefix(0xC0A80000|(rng.Uint32()&0xFFFF), uint8(16+rng.Intn(17)))),
					Priority: int32(rng.Intn(50)),
					Action:   classifier.Action{Type: classifier.ActionDrop},
				}})
			default:
				// Known-bad ops: the error must land in the slot on both
				// routes (unknown delete, duplicate insert).
				if rng.Intn(2) == 0 || len(live) == 0 {
					ops = append(ops, BatchOp{Kind: BatchDelete, Rule: classifier.Rule{ID: 999999}})
				} else {
					ops = append(ops, BatchOp{Kind: BatchInsert, Rule: classifier.Rule{
						ID:    live[rng.Intn(len(live))],
						Match: classifier.DstMatch(classifier.NewPrefix(0x0A000000, 8)),
					}})
				}
			}
		}

		out = batched.ApplyBatch(now, ops, out)
		if len(out) != len(ops) {
			t.Fatalf("seed %d round %d: %d results for %d ops", seed, round, len(out), len(ops))
		}
		for i, op := range ops {
			var wantRes Result
			var wantErr error
			switch op.Kind {
			case BatchInsert:
				wantRes, wantErr = perOp.Insert(now, op.Rule)
			case BatchDelete:
				wantRes, wantErr = perOp.Delete(now, op.Rule.ID)
			case BatchModify:
				wantRes, wantErr = perOp.Modify(now, op.Rule)
			}
			got := out[i]
			if (got.Err == nil) != (wantErr == nil) ||
				(got.Err != nil && got.Err.Error() != wantErr.Error()) {
				t.Fatalf("seed %d round %d op %d: batched err %v, per-op err %v",
					seed, round, i, got.Err, wantErr)
			}
			if got.Res != wantRes {
				t.Fatalf("seed %d round %d op %d: batched %+v, per-op %+v",
					seed, round, i, got.Res, wantRes)
			}
		}

		// Occasionally run the Rule Manager on both twins.
		if rng.Intn(4) == 0 {
			done := batched.Tick(now)
			perOp.Tick(now)
			if done != 0 && rng.Intn(2) == 0 {
				now = done
				batched.Advance(now)
				perOp.Advance(now)
			}
		}

		// Probe packets: the batched agent must answer identically
		// to the per-op agent.
		prng := rand.New(rand.NewSource(seed*1000 + int64(round)))
		logical := perOp.LogicalRules()
		for k := 0; k < 60; k++ {
			var dst uint32
			if len(logical) > 0 && prng.Intn(4) != 0 {
				p := logical[prng.Intn(len(logical))].Match.Dst
				dst = p.Addr | (prng.Uint32() & ^p.Mask())
			} else {
				dst = prng.Uint32()
			}
			got, gok := batched.Lookup(dst, 0)
			want, wok := perOp.Lookup(dst, 0)
			if gok != wok || got != want {
				t.Fatalf("seed %d round %d pkt %08x: batched %v,%v per-op %v,%v",
					seed, round, dst, got, gok, want, wok)
			}
		}
	}

	if err := batched.CheckConsistency(); err != nil {
		t.Fatalf("seed %d: batched: %v", seed, err)
	}
	if err := perOp.CheckConsistency(); err != nil {
		t.Fatalf("seed %d: per-op: %v", seed, err)
	}
	a, b := perOp.LogicalRules(), batched.LogicalRules()
	sort.Slice(a, func(i, j int) bool { return a[i].ID < a[j].ID })
	sort.Slice(b, func(i, j int) bool { return b[i].ID < b[j].ID })
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed %d: final rule sets diverged: %d vs %d rules", seed, len(a), len(b))
	}
	got, want := batched.Metrics(), perOp.Metrics()
	got.GuaranteedLatency, got.AllLatency, want.GuaranteedLatency, want.AllLatency = nil, nil, nil, nil
	if got != want {
		t.Fatalf("seed %d: counters diverged:\nbatched %+v\n per-op %+v", seed, got, want)
	}
	return got
}

// TestApplyBatchInOrder proves ops inside one batch observe earlier ops'
// effects in submission order: insert→delete→reinsert of one rule ID all
// succeed, and a duplicate of a surviving insert fails in its slot.
func TestApplyBatchInOrder(t *testing.T) {
	a := newTestAgent(t, Config{DisableRateLimit: true})
	r := dstRule(7, "10.1.0.0/16", 5, 1)
	out := a.ApplyBatch(0, []BatchOp{
		{Kind: BatchInsert, Rule: r},
		{Kind: BatchDelete, Rule: classifier.Rule{ID: 7}},
		{Kind: BatchInsert, Rule: r},
		{Kind: BatchInsert, Rule: r}, // duplicate of the surviving insert
	}, nil)
	if out[0].Err != nil || out[1].Err != nil || out[2].Err != nil {
		t.Fatalf("in-order ops failed: %+v", out)
	}
	if out[3].Err == nil {
		t.Fatal("duplicate insert in the same batch succeeded")
	}
	if occ := a.ShadowOccupancy() + a.MainOccupancy(); occ != 1 {
		t.Fatalf("occupancy = %d, want 1", occ)
	}
}

// batchBenchRules builds n guarded, pairwise non-overlapping rules (distinct
// /20 destination prefixes from base up) that nothing cuts.
func batchBenchRules(n int, base classifier.RuleID) []classifier.Rule {
	rules := make([]classifier.Rule, n)
	for i := range rules {
		id := base + classifier.RuleID(i)
		rules[i] = classifier.Rule{
			ID:       id,
			Match:    classifier.DstMatch(classifier.NewPrefix(uint32(id)<<12, 20)),
			Priority: 10,
			Action:   classifier.Action{Type: classifier.ActionForward, Port: i % 48},
		}
	}
	return rules
}

// TestInsertZeroAllocSteadyState is the insert path's allocation contract:
// once the freelist, the table slices and the index nodes are warm, an insert
// that Algorithm 1 leaves uncut performs no heap allocation at all — through
// Agent.Insert and through ApplyBatch, which are the same path — and neither
// does a §4.2 bypass or a shadow-full divert to the main table.
func TestInsertZeroAllocSteadyState(t *testing.T) {
	const batch = 64
	// A long guarantee keeps intra-batch queueing (64 serialized ops at one
	// virtual instant) under the bound.
	for _, tc := range []struct {
		name       string
		cfg        Config
		fillShadow bool // install ShadowSize rules first and never delete them
		path       InsertPath
	}{
		{"uncut shadow install", Config{Guarantee: time.Second, DisableRateLimit: true, DisableLowPriorityBypass: true}, false, PathShadow},
		// Equal priorities append shift-free below everything installed.
		{"lowest-priority bypass", Config{Guarantee: time.Second, DisableRateLimit: true}, false, PathBypass},
		// No Tick runs, so the fillers keep the shadow table full.
		{"shadow full, main install", Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true, DisableLowPriorityBypass: true}, true, PathMain},
	} {
		for _, batched := range []bool{false, true} {
			name := tc.name + " via Insert"
			if batched {
				name = tc.name + " via ApplyBatch"
			}
			t.Run(name, func(t *testing.T) {
				a, err := New(tcam.NewSwitch("zeroalloc", tcam.Pica8P3290), tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if tc.fillShadow {
					for _, r := range batchBenchRules(a.ShadowSize(), 1000) {
						if _, err := a.Insert(0, r); err != nil {
							t.Fatal(err)
						}
					}
				}
				rules := batchBenchRules(batch, 1)
				ops := make([]BatchOp, batch)
				for i, r := range rules {
					ops[i] = BatchOp{Kind: BatchInsert, Rule: r}
				}
				var out []BatchResult
				now := time.Duration(0)
				insertAll := func() {
					now += time.Second
					if batched {
						out = a.ApplyBatch(now, ops, out)
						return
					}
					out = out[:0]
					for _, r := range rules {
						res, err := a.Insert(now, r)
						out = append(out, BatchResult{Res: res, Err: err})
					}
				}
				deleteAll := func() {
					for i, r := range rules {
						if out[i].Err != nil {
							t.Fatalf("insert %d: %v", i, out[i].Err)
						}
						if out[i].Res.Path != tc.path {
							t.Fatalf("insert %d took %v, want %v", i, out[i].Res.Path, tc.path)
						}
						if _, err := a.Delete(now, r.ID); err != nil {
							t.Fatalf("delete %d: %v", i, err)
						}
					}
				}
				// Warm-up: freelist, table slices, index nodes and the result
				// buffer reach steady state.
				for i := 0; i < 8; i++ {
					insertAll()
					deleteAll()
				}
				// Mallocs is process-global, so a stray allocation from an
				// unrelated goroutine (GC assist, runtime timer) can pollute a
				// single window. The path's own allocations are a lower bound on
				// every measurement, so the minimum across cycles isolates them
				// from that noise: it is zero iff the path allocates nothing.
				var before, after runtime.MemStats
				least := ^uint64(0)
				for i := 0; i < 10; i++ {
					runtime.ReadMemStats(&before)
					insertAll()
					runtime.ReadMemStats(&after)
					least = min(least, after.Mallocs-before.Mallocs)
					deleteAll()
				}
				if least != 0 {
					t.Fatalf("%d inserts performed at least %d allocations every cycle, want a 0-alloc steady state", batch, least)
				}
			})
		}
	}
}
