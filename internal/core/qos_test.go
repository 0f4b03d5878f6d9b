package core

import (
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/tcam"
)

func TestCreateTCAMQoS(t *testing.T) {
	reg := NewRegistry()
	sw := tcam.NewSwitch("s1", tcam.Pica8P3290)
	id, info, err := reg.CreateTCAMQoS(sw, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.MaxBurstRate <= 0 {
		t.Error("MaxBurstRate must be positive (Equation 2)")
	}
	if info.ShadowEntries <= 0 || info.OverheadFraction <= 0 {
		t.Errorf("info = %+v", info)
	}
	if info.SwitchName != "s1" || info.Guarantee != 5*time.Millisecond {
		t.Errorf("info = %+v", info)
	}
	if a, ok := reg.Agent(id); !ok || a == nil {
		t.Error("Agent lookup failed")
	}
	if got, ok := reg.Info(id); !ok || got != info {
		t.Error("Info lookup failed")
	}
	// Second QoS on the same switch fails.
	if _, _, err := reg.CreateTCAMQoS(sw, time.Millisecond, nil); err == nil {
		t.Error("duplicate QoS must fail")
	}
}

func TestCreateTCAMQoSInfeasible(t *testing.T) {
	reg := NewRegistry()
	sw := tcam.NewSwitch("s1", tcam.Pica8P3290)
	if _, _, err := reg.CreateTCAMQoS(sw, time.Microsecond, nil); err == nil {
		t.Error("infeasible guarantee must fail")
	}
}

func TestDeleteQoS(t *testing.T) {
	reg := NewRegistry()
	sw := tcam.NewSwitch("s1", tcam.Pica8P3290)
	id, _, err := reg.CreateTCAMQoS(sw, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.DeleteQoS(id) {
		t.Error("DeleteQoS failed")
	}
	if reg.DeleteQoS(id) {
		t.Error("double DeleteQoS succeeded")
	}
	// The switch reverts to a monolithic table.
	if sw.Table().Capacity() != tcam.Pica8P3290.Capacity {
		t.Error("switch not uncarved")
	}
	// A new QoS can now be created.
	if _, _, err := reg.CreateTCAMQoS(sw, time.Millisecond, nil); err != nil {
		t.Errorf("re-create after delete: %v", err)
	}
}

func TestModQoSConfig(t *testing.T) {
	reg := NewRegistry()
	sw := tcam.NewSwitch("s1", tcam.Pica8P3290)
	id, before, err := reg.CreateTCAMQoS(sw, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The migration fault hook is agent state: one set before the re-carve
	// must still fire on the replacement agent.
	old, _ := reg.Agent(id)
	fired := 0
	old.SetMigrationInterrupt(func(MigrationStep, time.Duration) bool { fired++; return true })
	if !reg.ModQoSConfig(id, 10*time.Millisecond) {
		t.Fatal("ModQoSConfig failed")
	}
	a, _ := reg.Agent(id)
	for i, prio := range []int32{1, 5} {
		r := classifier.Rule{ID: classifier.RuleID(i + 1), Priority: prio,
			Match: classifier.DstMatch(classifier.NewPrefix(0x0A000000|uint32(i)<<16, 16))}
		if _, err := a.Insert(0, r); err != nil {
			t.Fatal(err)
		}
	}
	if end := a.ForceMigration(time.Millisecond); end != 0 || fired != 1 {
		t.Errorf("after ModQoSConfig: ForceMigration = %v with the hook fired %d times, want an abort at the copy step", end, fired)
	}
	after, _ := reg.Info(id)
	if after.Guarantee != 10*time.Millisecond {
		t.Errorf("guarantee = %v", after.Guarantee)
	}
	if after.ShadowEntries <= before.ShadowEntries {
		t.Errorf("looser guarantee must grow the shadow: %d -> %d",
			before.ShadowEntries, after.ShadowEntries)
	}
	if reg.ModQoSConfig(999, time.Millisecond) {
		t.Error("ModQoSConfig on unknown id succeeded")
	}
}

func TestModQoSMatch(t *testing.T) {
	reg := NewRegistry()
	sw := tcam.NewSwitch("s1", tcam.Pica8P3290)
	id, _, err := reg.CreateTCAMQoS(sw, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred := func(r classifier.Rule) bool { return r.Priority > 10 }
	if !reg.ModQoSMatch(id, pred) {
		t.Error("ModQoSMatch failed")
	}
	a, _ := reg.Agent(id)
	if a.guarded(classifier.Rule{Priority: 5}) {
		t.Error("predicate not applied")
	}
	if !a.guarded(classifier.Rule{Priority: 50}) {
		t.Error("predicate rejects guarded rule")
	}
	if reg.ModQoSMatch(999, pred) {
		t.Error("ModQoSMatch on unknown id succeeded")
	}
}

func TestQoSOverheads(t *testing.T) {
	// Overhead grows with the guarantee and stays < 5% for 5ms on the
	// Pica8 (the paper's headline number; Figure 14's shape).
	var prev float64
	for _, g := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond} {
		o := QoSOverheads(tcam.Pica8P3290, g)
		if o <= prev {
			t.Errorf("overhead at %v = %v, not increasing", g, o)
		}
		prev = o
	}
	if o := QoSOverheads(tcam.Pica8P3290, 5*time.Millisecond); o >= 0.05 {
		t.Errorf("5ms overhead = %.3f, want < 5%%", o)
	}
	// Infeasible guarantees preview as zero.
	if o := QoSOverheads(tcam.Pica8P3290, time.Microsecond); o != 0 {
		t.Errorf("infeasible overhead = %v", o)
	}
	// Very loose guarantees are capped at half the TCAM.
	if o := QoSOverheads(tcam.Pica8P3290, time.Hour); o > 0.5 {
		t.Errorf("capped overhead = %v", o)
	}
}

func TestModQoSConfigInfeasibleRestores(t *testing.T) {
	reg := NewRegistry()
	sw := tcam.NewSwitch("s1", tcam.Pica8P3290)
	id, _, err := reg.CreateTCAMQoS(sw, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reg.ModQoSConfig(id, time.Nanosecond) {
		t.Fatal("infeasible ModQoSConfig succeeded")
	}
	// The previous configuration must still be live and usable.
	a, ok := reg.Agent(id)
	if !ok {
		t.Fatal("agent gone after failed modify")
	}
	if _, err := a.Insert(0, classifier.Rule{
		ID:       1,
		Match:    classifier.DstMatch(classifier.MustParsePrefix("10.0.0.0/8")),
		Priority: 1,
	}); err != nil {
		t.Errorf("agent unusable after failed modify: %v", err)
	}
	info, _ := reg.Info(id)
	if info.Guarantee != 5*time.Millisecond {
		t.Errorf("info mutated after failed modify: %+v", info)
	}
}
