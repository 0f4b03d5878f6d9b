package core_test

// Behaviour pins for the Gate Keeper write path. TestGateKeeperCountsPinned's
// golden values were taken on the commit before Algorithm 1 and the partition
// map were made incremental, TestBatchCountsPinned's on the commit before the
// batch entry point lost its private insert path; every count is exact in
// virtual time, so a later commit that moves any of them changed model
// behaviour, not just CPU time.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/loadgen"
	"hermes/internal/tcam"
	"hermes/internal/verify"
	"hermes/internal/workload"
)

const (
	pinSeed       = 31
	pinEpochs     = 2
	pinEpochRules = 3000
	pinTick       = 10 * time.Millisecond
)

// pinEpoch replays one MicroBench epoch the way benchmark/gate.go does: each
// insert at its virtual time followed by the delete of the rule half an epoch
// back, a Rule Manager tick every 10 ms, the tail deleted at the end. full
// runs after the last insert, with the tables at their fullest.
func pinEpoch(t *testing.T, a *core.Agent, base, nextTick *time.Duration, stream []workload.TimedRule, full func()) {
	t.Helper()
	tick := func(upTo time.Duration) {
		for *nextTick <= upTo {
			if end := a.Tick(*nextTick); end != 0 {
				a.Advance(end)
			}
			*nextTick += pinTick
		}
	}
	var now time.Duration
	lag := len(stream) / 2
	for i, r := range stream {
		now = *base + r.At
		tick(now)
		if _, err := a.Insert(now, r.Rule); err != nil {
			t.Fatalf("insert %d: %v", r.Rule.ID, err)
		}
		if i >= lag {
			if _, err := a.Delete(now, stream[i-lag].Rule.ID); err != nil {
				t.Fatalf("delete %d: %v", stream[i-lag].Rule.ID, err)
			}
		}
	}
	full()
	for _, r := range stream[len(stream)-lag:] {
		if _, err := a.Delete(now, r.Rule.ID); err != nil {
			t.Fatalf("delete %d: %v", r.Rule.ID, err)
		}
	}
	tick(now + pinTick)
	*base = now + 100*time.Millisecond
}

func pinStreams() [][]workload.TimedRule {
	streams := make([][]workload.TimedRule, pinEpochs)
	for k := range streams {
		streams[k] = workload.MicroBench(rand.New(rand.NewSource(workload.SubSeed(pinSeed, uint64(k+1)))),
			workload.MicroBenchConfig{Rules: pinEpochRules, RatePerSec: 1000, OverlapFrac: 0.5, MaxPriority: 64})
	}
	return streams
}

func pinAgent(t *testing.T, cfg core.Config) *core.Agent {
	t.Helper()
	cfg.Guarantee = 5 * time.Millisecond
	a, err := core.New(tcam.NewSwitch("pin", tcam.Pica8P3290), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGateKeeperCountsPinned(t *testing.T) {
	const (
		wantMetrics = "{Inserts:6000 ShadowInserts:2605 MainInserts:90 Bypasses:22 Redundant:3283 RateLimited:71 Oversized:19 ShadowFull:0 Deletes:6000 Modifies:0 " +
			"PartitionsInstalled:3270 RulesCut:267 Repartitions:2697 Violations:435 Migrations:77 MigratedRules:5578 MigrationBusy:1.65986s " +
			"ExposedRuleSeconds:0 MigrationAborts:0 MigrationInterrupts:0 SwitchRestarts:0 Reconciles:0 ReconcileStale:0 ReconcileRepaired:0 " +
			"GuaranteedLatency:<nil> AllLatency:<nil>}"
		wantFull     = "shadow=31 main=1470 shadow=59 main=1220 "
		wantShifts   = "pin/shadow=47934 pin/main=2997374 "
		wantLastPart = 1<<40 + 5182
	)
	streams := pinStreams()

	a := pinAgent(t, core.Config{})
	var base time.Duration
	nextTick := pinTick
	var full string
	for _, stream := range streams {
		pinEpoch(t, a, &base, &nextTick, stream, func() {
			full += fmt.Sprintf("shadow=%d main=%d ", a.ShadowOccupancy(), a.MainOccupancy())
		})
	}
	m := a.Metrics()
	m.GuaranteedLatency, m.AllLatency = nil, nil
	if got := fmt.Sprintf("%+v", m); got != wantMetrics {
		t.Errorf("Metrics() moved:\n got %s\nwant %s", got, wantMetrics)
	}
	if full != wantFull {
		t.Errorf("occupancy at the fullest point of each epoch: got %q, want %q", full, wantFull)
	}
	var shifts string
	for _, tbl := range a.Switch().Slices() {
		shifts += fmt.Sprintf("%s=%d ", tbl.Name(), tbl.Stats().Shifts)
	}
	if shifts != wantShifts {
		t.Errorf("tcam shift totals: got %q, want %q", shifts, wantShifts)
	}
	if got := a.LastPartID(); got != wantLastPart {
		t.Errorf("last minted part ID: got %d, want %d", got, wantLastPart)
	}
	if occ := a.ShadowOccupancy() + a.MainOccupancy(); occ != 0 {
		t.Errorf("%d TCAM entries left after the last epoch drained", occ)
	}

	// The same replay on a TrackLogical twin, proved equal to one monolithic
	// TCAM by the exact checker with the tables full and again drained.
	twin := pinAgent(t, core.Config{TrackLogical: true})
	check := func(when string) {
		t.Helper()
		ce, err := verify.Agent(twin)
		if err != nil {
			t.Fatal(err)
		}
		if ce != nil {
			t.Fatalf("%s: carved pipeline differs from its logical table: %s", when, ce)
		}
	}
	base, nextTick = 0, pinTick
	for k, stream := range streams {
		pinEpoch(t, twin, &base, &nextTick, stream, func() { check(fmt.Sprintf("epoch %d full", k)) })
		check(fmt.Sprintf("epoch %d drained", k))
	}
}

// pinBatchReplay replays the fleet_batch stream shape (benchmark/fleet.go:
// Poisson arrivals, Zipf 1.1 re-arrivals that surface as modifies, hold sized
// for about 2000 live rules; the rate is the 40 k flow-mods/s a closed-loop
// fleet reaches, so the shadow table fills between ticks) through ApplyBatch
// in 64-op batches. A batch applies at its last event's virtual time, after
// the Rule Manager ticks due by then. The stream's /24 flows never overlap, so
// the first batch also carries four high-priority aggregates over a quarter of
// the destination space with a /2 source: once migrated they cut every flow
// under them in two (minting part IDs), and the delete of one of them later
// un-merges its dependents. full runs on the batch with the live set at its
// plateau.
func pinBatchReplay(t *testing.T, a *core.Agent, full func()) {
	t.Helper()
	s, err := loadgen.Generate(loadgen.Config{
		Flows: 24_000, Rate: 40_000, Arrival: loadgen.ArrivalPoisson,
		Distinct: 1_000_000, ZipfS: 1.1, Hold: 125 * time.Millisecond, Seed: pinSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		batch       = 64
		fullBatch   = 200
		unmerge     = 300 // batch that starts with the delete of aggregate 0
		aggregates  = 4
		aggregateID = 2_000_000
	)
	var ops []core.BatchOp
	for k := 0; k < aggregates; k++ {
		ops = append(ops, core.BatchOp{Kind: core.BatchInsert, Rule: classifier.Rule{
			ID: classifier.RuleID(aggregateID + k),
			Match: classifier.Match{
				Dst: classifier.NewPrefix(uint32(k)<<28, 4),
				Src: classifier.NewPrefix(0xC0000000, 2),
			},
			Priority: 20,
			Action:   classifier.Action{Type: classifier.ActionDrop},
		}})
	}
	at := make([]time.Duration, aggregates, aggregates+len(s.Events)+1)
	for _, e := range s.Events {
		if len(ops) == unmerge*batch {
			ops = append(ops, core.BatchOp{Kind: core.BatchDelete, Rule: classifier.Rule{ID: aggregateID}})
			at = append(at, e.At)
		}
		kind := core.BatchInsert
		switch e.Op {
		case loadgen.OpModify:
			kind = core.BatchModify
		case loadgen.OpDelete:
			kind = core.BatchDelete
		}
		ops = append(ops, core.BatchOp{Kind: kind, Rule: e.Rule})
		at = append(at, e.At)
	}
	nextTick := pinTick
	var out []core.BatchResult
	for i := 0; i < len(ops); i += batch {
		end := min(i+batch, len(ops))
		now := at[end-1]
		for ; nextTick <= now; nextTick += pinTick {
			if done := a.Tick(nextTick); done != 0 && done <= now {
				a.Advance(done)
			}
		}
		out = a.ApplyBatch(now, ops[i:end], out)
		for k, r := range out {
			if r.Err != nil {
				t.Fatalf("op %d (kind %d rule %d): %v", i+k, ops[i+k].Kind, ops[i+k].Rule.ID, r.Err)
			}
		}
		if i/batch == fullBatch {
			full()
		}
	}
}

// pinQuietTail is the fault and repair half of the Metrics() string, all zero
// on a replay without faults.
const pinQuietTail = "ExposedRuleSeconds:0 MigrationAborts:0 MigrationInterrupts:0 SwitchRestarts:0 Reconciles:0 ReconcileStale:0 ReconcileRepaired:0 GuaranteedLatency:<nil> AllLatency:<nil>}"

func TestBatchCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		name                              string
		cfg                               core.Config
		wantMetrics, wantFull, wantShifts string
		wantLastPart                      classifier.RuleID
	}{
		{
			name: "rate limit on", cfg: core.Config{},
			wantMetrics: "{Inserts:8769 ShadowInserts:623 MainInserts:7870 Bypasses:276 Redundant:0 RateLimited:7788 Oversized:0 ShadowFull:82 Deletes:8766 Modifies:15235 " +
				"PartitionsInstalled:760 RulesCut:137 Repartitions:2 Violations:800 Migrations:9 MigratedRules:596 MigrationBusy:348ms " + pinQuietTail,
			wantFull:     "shadow=67 main=1972",
			wantShifts:   "pin/shadow=29386 pin/main=7488650 ",
			wantLastPart: 1<<40 + 319,
		},
		{
			name: "rate limit off", cfg: core.Config{DisableRateLimit: true},
			wantMetrics: "{Inserts:8769 ShadowInserts:1512 MainInserts:6980 Bypasses:276 Redundant:1 RateLimited:0 Oversized:0 ShadowFull:6980 Deletes:8766 Modifies:15235 " +
				"PartitionsInstalled:1848 RulesCut:336 Repartitions:6 Violations:1768 Migrations:15 MigratedRules:1484 MigrationBusy:499.3ms " + pinQuietTail,
			wantFull:     "shadow=36 main=1997",
			wantShifts:   "pin/shadow=60409 pin/main=7436621 ",
			wantLastPart: 1<<40 + 3809,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := pinAgent(t, tc.cfg)
			var full string
			pinBatchReplay(t, a, func() {
				full = fmt.Sprintf("shadow=%d main=%d", a.ShadowOccupancy(), a.MainOccupancy())
			})
			m := a.Metrics()
			m.GuaranteedLatency, m.AllLatency = nil, nil
			if got := fmt.Sprintf("%+v", m); got != tc.wantMetrics {
				t.Errorf("Metrics() moved:\n got %s\nwant %s", got, tc.wantMetrics)
			}
			if full != tc.wantFull {
				t.Errorf("occupancy on the pinned batch: got %q, want %q", full, tc.wantFull)
			}
			var shifts string
			for _, tbl := range a.Switch().Slices() {
				shifts += fmt.Sprintf("%s=%d ", tbl.Name(), tbl.Stats().Shifts)
			}
			if shifts != tc.wantShifts {
				t.Errorf("tcam shift totals: got %q, want %q", shifts, tc.wantShifts)
			}
			if got := a.LastPartID(); got != tc.wantLastPart {
				t.Errorf("last minted part ID: got %d, want %d", got, tc.wantLastPart)
			}

			tc.cfg.TrackLogical = true
			twin := pinAgent(t, tc.cfg)
			check := func(when string) {
				t.Helper()
				ce, err := verify.Agent(twin)
				if err != nil {
					t.Fatal(err)
				}
				if ce != nil {
					t.Fatalf("%s: carved pipeline differs from its logical table: %s", when, ce)
				}
			}
			pinBatchReplay(t, twin, func() { check("pinned batch") })
			check("end of stream")
		})
	}
}
