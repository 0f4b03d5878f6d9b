package hermes_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"hermes"
	"hermes/internal/core"
	"hermes/internal/fleet"
	"hermes/internal/intent"
	"hermes/internal/loadgen"
	"hermes/internal/loadgen/driver"
)

// TestPublicAPIQuickstart exercises the doc-comment quickstart end to end
// through the public surface only.
func TestPublicAPIQuickstart(t *testing.T) {
	sw := hermes.NewSwitch("tor-1", hermes.Pica8P3290)
	agent, err := hermes.NewAgent(sw, hermes.Config{Guarantee: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	rule := hermes.Rule{
		ID:       1,
		Match:    hermes.DstMatch(hermes.MustParsePrefix("10.1.0.0/16")),
		Priority: 10,
		Action:   hermes.Action{Type: hermes.ActionForward, Port: 3},
	}
	res, err := agent.Insert(now, rule)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Guaranteed {
		t.Errorf("first insert not guaranteed: %+v", res)
	}
	if res.Completed-now > 5*time.Millisecond {
		t.Errorf("guarantee exceeded: %v", res.Completed-now)
	}
	got, ok := agent.Lookup(hermes.MustParsePrefix("10.1.2.3/32").Addr, 0)
	if !ok || got.ID != 1 {
		t.Errorf("lookup = %v, %v", got, ok)
	}
	if _, err := agent.Delete(now+time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicQoSAPI(t *testing.T) {
	reg := hermes.NewRegistry()
	sw := hermes.NewSwitch("s1", hermes.Dell8132F)
	id, info, err := reg.CreateTCAMQoS(sw, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.MaxBurstRate <= 0 || info.ShadowEntries <= 0 {
		t.Errorf("info = %+v", info)
	}
	if o := hermes.QoSOverheads(hermes.Dell8132F, 5*time.Millisecond); o <= 0 || o > 0.5 {
		t.Errorf("overhead = %v", o)
	}
	if !reg.ModQoSConfig(id, 10*time.Millisecond) {
		t.Error("ModQoSConfig failed")
	}
	if !reg.DeleteQoS(id) {
		t.Error("DeleteQoS failed")
	}
}

func TestPublicProfiles(t *testing.T) {
	if len(hermes.Profiles()) != 3 {
		t.Error("profiles")
	}
	if _, ok := hermes.ProfileByName("Pica8 P-3290"); !ok {
		t.Error("ProfileByName")
	}
	for _, p := range hermes.Profiles() {
		if err := p.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestPublicPredictors(t *testing.T) {
	preds := []hermes.Predictor{
		hermes.NewEWMA(0.3), hermes.NewCubicSpline(8), hermes.NewARMA(2, 16),
	}
	for _, p := range preds {
		p.Observe(10)
		p.Observe(20)
		if p.Predict() < 0 {
			t.Errorf("%s: negative prediction", p.Name())
		}
	}
	var c hermes.Corrector = hermes.Slack{Factor: 0.4}
	if c.Correct(1000) != 1400 {
		t.Error("Slack")
	}
	c = hermes.Deadzone{Delta: 100}
	if c.Correct(1000) != 1100 {
		t.Error("Deadzone")
	}
}

// TestPublicVerifyAgent runs the exact equivalence proof through the
// public surface.
func TestPublicVerifyAgent(t *testing.T) {
	sw := hermes.NewSwitch("v", hermes.Pica8P3290)
	agent, err := hermes.NewAgent(sw, hermes.Config{
		Guarantee:        5 * time.Millisecond,
		DisableRateLimit: true,
		TrackLogical:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	for i := 0; i < 60; i++ {
		r := hermes.Rule{
			ID:       hermes.RuleID(i + 1),
			Match:    hermes.DstMatch(hermes.NewPrefix(0xC0A80000|uint32(i*37)<<4, uint8(20+i%12))),
			Priority: int32(i % 15),
			Action:   hermes.Action{Type: hermes.ActionForward, Port: i},
		}
		if _, err := agent.Insert(now, r); err != nil {
			t.Fatal(err)
		}
		now += 2 * time.Millisecond
	}
	if end := agent.ForceMigration(now); end != 0 {
		agent.Advance(end)
	}
	ce, err := hermes.VerifyAgent(agent)
	if err != nil {
		t.Fatal(err)
	}
	if ce != nil {
		t.Fatalf("pipeline not equivalent: %v", ce)
	}
	// Without tracking, verification refuses.
	plain, _ := hermes.NewAgent(hermes.NewSwitch("v2", hermes.Dell8132F), hermes.Config{Guarantee: 5 * time.Millisecond})
	if _, err := hermes.VerifyAgent(plain); err == nil {
		t.Error("verification without TrackLogical must error")
	}
}

// TestConfigKnobsPinned is the knob ratchet: it pins the exported fields of
// the three configuration structs, the load driver's and its SLO budget, so
// a new option cannot land without a visible edit to this pin. Each field
// doubles the configurations the tests and the benchmark must cover.
func TestConfigKnobsPinned(t *testing.T) {
	for _, c := range []struct {
		cfg  any
		want []string
	}{
		{core.Config{}, []string{"Guarantee", "Predicate", "Predictor", "Corrector",
			"TickInterval", "Mode", "Threshold", "MaxPartitions",
			"DisableLowPriorityBypass", "DisableMergeOptimization", "NaiveMigration",
			"DisableRateLimit", "AutoTuneSlack", "TrackLogical", "LinearLookup",
			"Cache", "Observer"}},
		{fleet.Config{}, []string{"QueueDepth", "BatchSize", "DialTimeout", "Dial",
			"WireBatch", "BatchLinger", "OpTimeout", "ProbeInterval",
			"Breaker", "Obs", "OnResult", "OnReconnect"}},
		{intent.Config{}, []string{"Switches", "Shards", "ID", "Store", "Target",
			"Now", "After", "Resync", "RateLimit", "Seed", "Leases", "Trace", "Obs",
			"Permanent"}},
		{driver.Config{}, []string{"TimeScale"}},
		{loadgen.ClassSLO{}, []string{"Class", "MaxViolationRate", "ViolationRateSet",
			"MaxLossRate", "LossRateSet"}},
	} {
		ty := reflect.TypeOf(c.cfg)
		var got []string
		for i := 0; i < ty.NumField(); i++ {
			if f := ty.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v has exported fields\n  %v\nthe pin lists\n  %v\n"+
				"adding or removing a knob needs a reviewed edit of this pin", ty, got, c.want)
		}
	}
}
