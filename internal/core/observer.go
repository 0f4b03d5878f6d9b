package core

import (
	"fmt"
	"time"

	"hermes/internal/obs"
)

// Observer wires one agent into the obs subsystem: per-class latency
// histograms, migration-step accounting, and the flow-mod lifecycle tracer
// whose flight recorder snapshots on guarantee violations and
// reconcile repairs. All fields are optional; a nil *Observer (the default)
// costs the agent one pointer comparison per call site, so instrumentation
// is always compiled in and enabled by configuration.
//
// Timestamps passed to the tracer are the agent's virtual `now`, so under
// internal/sim or a seeded faultinject schedule the recorded event sequence
// is deterministic.
type Observer struct {
	// Tracer receives one event per control-plane action. Optional.
	Tracer *obs.Tracer

	// Per-class operation latency (ns): the Gate Keeper's four insertion
	// outcomes plus deletes and modifies. Optional, each independently.
	ShadowNS *obs.Histogram // guaranteed shadow-path insertions
	BypassNS *obs.Histogram // §4.2 lowest-priority bypasses
	MainNS   *obs.Histogram // unguaranteed main-path insertions
	DeleteNS *obs.Histogram
	ModifyNS *obs.Histogram

	// ViolationOverrunNS records, for each guarantee violation, how far
	// past the deadline the insertion completed.
	ViolationOverrunNS *obs.Histogram

	// MigrationNS records each migration's background-copy duration;
	// MigrationRules the rules it moved. Together with the per-step trace
	// events they give the Fig.-7 step timings.
	MigrationNS    *obs.Histogram
	MigrationRules *obs.Histogram

	// ShadowShifts/MainShifts, when set, are attached to the carved TCAM
	// slices and record the entry-shift count of every physical insert —
	// the paper's core cost model (latency ∝ shifts).
	ShadowShifts *obs.Histogram
	MainShifts   *obs.Histogram

	// RecutCauses records, for every shadow rule re-cut after a main-table
	// change, how many main rules Algorithm 1 cut it against — the fan-out
	// that decides what a re-cut costs.
	RecutCauses *obs.Histogram
}

// NewObserver builds a fully populated Observer whose histograms are
// registered on reg under the hermes_agent_* namespace and whose tracer
// keeps the last ringSize events. reg may be nil (metrics stay live but
// unexposed); the tracer is always created.
func NewObserver(reg *obs.Registry, ringSize int) *Observer {
	lat := func(class string) *obs.Histogram {
		return reg.HistogramL("hermes_agent_op_latency_ns",
			obs.Labels("class", class), "ns", "per-operation control-plane latency by class")
	}
	return &Observer{
		Tracer:   obs.NewTracer(ringSize, 8),
		ShadowNS: lat("shadow"),
		BypassNS: lat("bypass"),
		MainNS:   lat("main"),
		DeleteNS: lat("delete"),
		ModifyNS: lat("modify"),
		ViolationOverrunNS: reg.Histogram("hermes_agent_violation_overrun_ns", "ns",
			"how far past the guarantee violating insertions completed"),
		MigrationNS: reg.Histogram("hermes_agent_migration_ns", "ns",
			"background-copy duration per Fig.-7 migration"),
		MigrationRules: reg.Histogram("hermes_agent_migration_rules", "",
			"rules moved per migration"),
		ShadowShifts: reg.HistogramL("hermes_tcam_shifts",
			obs.Labels("table", "shadow"), "", "entry shifts per physical TCAM write"),
		MainShifts: reg.HistogramL("hermes_tcam_shifts",
			obs.Labels("table", "main"), "", "entry shifts per physical TCAM write"),
		RecutCauses: reg.Histogram("hermes_gatekeeper_recut_causes", "",
			"causes a re-cut recorded, per re-cut: the winning main rules it used, not those under a cause whose src contains the rule's"),
	}
}

// event forwards one lifecycle event to the tracer. Nil-safe.
func (o *Observer) event(at time.Duration, kind obs.EventKind, step MigrationStep, rule uint64, a, b uint64) {
	if o == nil {
		return
	}
	o.Tracer.Record(at, kind, uint8(step), rule, a, b)
}

// latency records d into h when both the observer and the histogram exist.
// Callers must not dereference o to produce h (o may be nil); use the
// per-class helpers below instead.
func (o *Observer) latency(h *obs.Histogram, d time.Duration) {
	if o == nil || h == nil {
		return
	}
	h.RecordDuration(d)
}

// Per-class nil-safe latency recorders: each guards the observer pointer
// before touching its histogram field.
func (o *Observer) recordShadow(d time.Duration) {
	if o != nil {
		o.latency(o.ShadowNS, d)
	}
}
func (o *Observer) recordBypass(d time.Duration) {
	if o != nil {
		o.latency(o.BypassNS, d)
	}
}
func (o *Observer) recordMain(d time.Duration) {
	if o != nil {
		o.latency(o.MainNS, d)
	}
}
func (o *Observer) recordDelete(d time.Duration) {
	if o != nil {
		o.latency(o.DeleteNS, d)
	}
}
func (o *Observer) recordModify(d time.Duration) {
	if o != nil {
		o.latency(o.ModifyNS, d)
	}
}
func (o *Observer) recordOverrun(d time.Duration) {
	if o != nil {
		o.latency(o.ViolationOverrunNS, d)
	}
}
func (o *Observer) recordMigration(cost time.Duration, rules int) {
	if o == nil {
		return
	}
	o.latency(o.MigrationNS, cost)
	if o.MigrationRules != nil {
		o.MigrationRules.Record(uint64(rules))
	}
}

func (o *Observer) recordRecut(causes int) {
	if o != nil && o.RecutCauses != nil {
		o.RecutCauses.Record(uint64(causes))
	}
}

// capture snapshots the flight recorder. Nil-safe; allocation happens only
// when a tracer is attached, and triggers are rare by design.
func (o *Observer) capture(at time.Duration, format string, args ...interface{}) {
	if o == nil || o.Tracer == nil {
		return
	}
	o.Tracer.CaptureNow(at, fmt.Sprintf(format, args...))
}
