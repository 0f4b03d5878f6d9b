package loadgen

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"hermes/internal/obs"
)

func feedLedger(l *Ledger) {
	for i := 0; i < 100; i++ {
		l.Submitted(0)
		l.Finished(0, OutcomeInstalled, false)
	}
	for i := 0; i < 10; i++ {
		l.Submitted(1)
		l.Finished(1, OutcomeDiverted, true)
	}
	l.Submitted(1)
	l.Finished(1, OutcomeLost, false)
}

func TestLedgerCountsAndTotals(t *testing.T) {
	l := NewLedger(2)
	feedLedger(l)

	c0, c1 := l.Class(0), l.Class(1)
	if c0.Submitted != 100 || c0.Installed != 100 || c0.Violations != 0 {
		t.Fatalf("class 0 = %+v", c0)
	}
	if c1.Submitted != 11 || c1.Diverted != 10 || c1.Lost != 1 || c1.Violations != 10 {
		t.Fatalf("class 1 = %+v", c1)
	}
	tot := l.Totals()
	if tot.Submitted != 111 || tot.Completed() != 111 || tot.Lost != 1 {
		t.Fatalf("totals = %+v", tot)
	}
	if r := c1.ViolationRate(); r < 0.9 || r > 0.92 {
		t.Fatalf("class 1 violation rate = %v, want 10/11", r)
	}

	// Out-of-range classes clamp into the last class, never panic.
	l.Submitted(9)
	l.Finished(9, OutcomeRejected, false)
	if got := l.Class(1).Rejected; got != 1 {
		t.Fatalf("clamped rejected = %d, want 1", got)
	}
}

// TestLedgerConcurrent: driver workers hammer the ledger; counts must
// conserve.
func TestLedgerConcurrent(t *testing.T) {
	l := NewLedger(3)
	var wg sync.WaitGroup
	const perWorker = 1000
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			class := uint8(w % 3)
			for i := 0; i < perWorker; i++ {
				l.Submitted(class)
				l.Finished(class, OutcomeInstalled, false)
			}
		}(w)
	}
	wg.Wait()
	tot := l.Totals()
	if tot.Submitted != 8*perWorker || tot.Installed != 8*perWorker {
		t.Fatalf("totals %d/%d, want %d each", tot.Submitted, tot.Installed, 8*perWorker)
	}
}

func TestLedgerRegister(t *testing.T) {
	l := NewLedger(2)
	feedLedger(l)
	reg := obs.NewRegistry()
	l.Register(reg)
	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"loadgen_submitted_total", "loadgen_violations_total", "loadgen_lost_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %s:\n%s", want, out)
		}
	}
}

func testRunInfo() RunInfo {
	return RunInfo{
		Seed: 42, ScheduleName: "synthetic-poisson", ScheduleDigest: "00000000deadbeef",
		Target: "fleet", Switches: 2, Arrivals: 111,
		OfferedRate: 1000, AchievedRate: 990, WallSeconds: 0.112,
	}
}

// TestEvaluatePassAndBreach: the same measurements pass a loose SLO and
// fail a tight one, with the breach naming the class and the rate.
func TestEvaluatePassAndBreach(t *testing.T) {
	l := NewLedger(2)
	feedLedger(l)
	l.Submitted(0)
	l.Finished(0, OutcomeLost, false) // class 0 loses 1 op in 101

	loose := SLO{Classes: []ClassSLO{
		{Class: 0, MaxLossRate: 0.05, MaxViolationRate: 0, ViolationRateSet: true},
		{Class: 1, MaxViolationRate: 1, MaxLossRate: 0.5},
	}}
	if v := Evaluate(l, loose, testRunInfo()); !v.Pass || len(v.Breaches) != 0 {
		t.Fatalf("loose SLO failed: %v", v.Breaches)
	}

	tight := SLO{Classes: []ClassSLO{
		{Class: 0, MaxLossRate: 0, LossRateSet: true},
		{Class: 1, MaxViolationRate: 0.01},
	}}
	v := Evaluate(l, tight, testRunInfo())
	if v.Pass {
		t.Fatal("tight SLO passed")
	}
	joined := strings.Join(v.Breaches, "\n")
	if !strings.Contains(joined, "class 0: loss rate") || !strings.Contains(joined, "class 1: violation rate") {
		t.Fatalf("breaches missing expected entries:\n%s", joined)
	}
	// The per-class reports carry their own breaches.
	if len(v.Classes) != 2 || len(v.Classes[0].Breaches) == 0 || len(v.Classes[1].Breaches) == 0 {
		t.Fatalf("per-class breach attribution wrong: %+v", v.Classes)
	}

	// Zero tolerated violations must be expressible (Eq. 1 is absolute).
	zero := SLO{Classes: []ClassSLO{{Class: 1, MaxViolationRate: 0, ViolationRateSet: true}}}
	if v := Evaluate(l, zero, testRunInfo()); v.Pass {
		t.Fatal("zero-violation budget did not flag violations")
	}
}

// TestEvaluateEmptyRunFails: a run that submitted nothing must not pass
// the gate, while an unbudgeted idle class on a live run is fine.
func TestEvaluateEmptyRunFails(t *testing.T) {
	if v := Evaluate(NewLedger(1), SLO{}, RunInfo{}); v.Pass {
		t.Fatal("empty run passed")
	}
	l := NewLedger(2) // class 1 idle
	l.Submitted(0)
	l.Finished(0, OutcomeInstalled, false)
	slo := Uniform(2, ClassSLO{MaxLossRate: 0, LossRateSet: true})
	if v := Evaluate(l, slo, testRunInfo()); !v.Pass {
		t.Fatalf("idle budgeted class breached: %v", v.Breaches)
	}
}

// TestVerdictJSONStable: the artifact is machine-readable, carries the
// gate fields CI scripts key on, and round-trips.
func TestVerdictJSONStable(t *testing.T) {
	l := NewLedger(1)
	l.Submitted(0)
	l.Finished(0, OutcomeInstalled, false)
	v := Evaluate(l, Uniform(1, ClassSLO{MaxLossRate: 0, LossRateSet: true}), testRunInfo())
	b, err := v.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"pass": true`, `"schedule_digest": "00000000deadbeef"`,
		`"offered_rate_per_sec"`, `"achieved_rate_per_sec"`, `"loss_rate"`,
		`"violation_rate"`, `"seed": 42`,
	} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("verdict JSON missing %s:\n%s", key, b)
		}
	}
	var back Verdict
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("verdict does not round-trip: %v", err)
	}
	if !back.Pass || back.Run.Seed != 42 || len(back.Classes) != 1 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
	// Same inputs, same bytes: CI can diff artifacts across runs.
	b2, err := v.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatal("verdict JSON is not stable")
	}
}
