package core

// Tests for the vectored entry points (core/batch.go): a differential
// replay proving the batched and per-op paths are result-identical on the
// same seeded schedule, an in-batch ordering check, the steady-state
// 0 allocs/op contract of the insert fast path.

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
func newBatchTwin(t *testing.T, name string) *Agent {
	t.Helper()
	sw := tcam.NewSwitch(name, tcam.Pica8P3290)
	a, err := New(sw, Config{
		Guarantee:        5 * time.Millisecond,
		TrackLogical:     true,
		DisableRateLimit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestBatchPerOpDifferential replays the same seeded schedule through a
// per-op agent and a batched agent (ApplyBatch) and
// requires identical per-op results, identical packet lookups after every
// batch, and identical final rule sets.
func TestBatchPerOpDifferential(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		perOp := newBatchTwin(t, "twin-perop")
		batched := newBatchTwin(t, "twin-batched")
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
	}
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
// /20 destination prefixes) so every insert takes the uncut fast path.
func batchBenchRules(n, gen int) []classifier.Rule {
	rules := make([]classifier.Rule, n)
	for i := range rules {
		rules[i] = classifier.Rule{
			ID:       classifier.RuleID(gen*n + i + 1),
			Match:    classifier.DstMatch(classifier.NewPrefix(uint32(i)<<12, 20)),
			Priority: 10,
			Action:   classifier.Action{Type: classifier.ActionForward, Port: i % 48},
		}
	}
	return rules
}

// TestInsertBatchZeroAllocSteadyState enforces the batch fast path's
// 0 allocs/op contract at runtime (hermes-vet enforces it statically):
// after pool and table warm-up, an InsertBatch of uncut rules performs no
// heap allocation at all.
func TestInsertBatchZeroAllocSteadyState(t *testing.T) {
	sw := tcam.NewSwitch("zeroalloc", tcam.Pica8P3290)
	// A long guarantee keeps intra-batch queueing (64 serialized ops at
	// one virtual instant) under the bound: a violation would trip the
	// flight recorder, which is allowed to allocate.
	a, err := New(sw, Config{
		Guarantee:                time.Second,
		DisableRateLimit:         true,
		DisableLowPriorityBypass: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 64
	rules := batchBenchRules(batch, 0)
	ids := make([]classifier.RuleID, batch)
	for i := range ids {
		ids[i] = rules[i].ID
	}
	var out, dout []BatchResult
	now := time.Duration(0)
	cycle := func() {
		now += time.Second
		out = a.InsertBatch(now, rules, out)
		for i := range out {
			if out[i].Err != nil {
				t.Fatalf("insert %d: %v", i, out[i].Err)
			}
			if out[i].Res.Path != PathShadow {
				t.Fatalf("insert %d took %v, want shadow fast path", i, out[i].Res.Path)
			}
		}
		dout = a.DeleteBatch(now, ids, dout)
		for i := range dout {
			if dout[i].Err != nil {
				t.Fatalf("delete %d: %v", i, dout[i].Err)
			}
		}
	}
	// Warm-up: freelist, table slices, and result buffers reach steady
	// state.
	for i := 0; i < 8; i++ {
		cycle()
	}
	// Mallocs is process-global, so a stray allocation from an unrelated
	// goroutine (GC assist, runtime timer) can pollute a single window.
	// The batch path's own allocations are a lower bound on every
	// measurement, so the minimum across cycles isolates them from that
	// noise: it is zero iff the path itself allocates nothing.
	var before, after runtime.MemStats
	min := ^uint64(0)
	for i := 0; i < 10; i++ {
		now += time.Second
		runtime.ReadMemStats(&before)
		out = a.InsertBatch(now, rules, out)
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got < min {
			min = got
		}
		dout = a.DeleteBatch(now, ids, dout)
	}
	if min != 0 {
		t.Fatalf("InsertBatch of %d rules performed at least %d allocations every cycle, want a 0-alloc steady state", batch, min)
	}
}
