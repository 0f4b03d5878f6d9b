package core_test

// Behaviour pin for the Gate Keeper write path. The golden values below were
// taken on the commit before Algorithm 1 and the partition map were made
// incremental; every count is exact in virtual time, so a later commit that
// moves any of them changed model behaviour, not just CPU time.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hermes/internal/core"
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
