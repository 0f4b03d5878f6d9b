package loadgen

import (
	"fmt"
	"sync/atomic"

	"hermes/internal/obs"
)

// Outcome classifies the terminal state of one scheduled operation.
type Outcome uint8

// Outcomes.
const (
	// OutcomeInstalled: the operation was applied on its intended path.
	OutcomeInstalled Outcome = iota
	// OutcomeDiverted: applied, but the Gate Keeper pushed the insert off
	// the guaranteed path (admitted best-effort).
	OutcomeDiverted
	// OutcomeRejected: the switch answered with a typed error — table
	// full, duplicate, unknown rule. The switch is alive; the operation
	// was refused.
	OutcomeRejected
	// OutcomeLost: no answer — wire failure, abandoned deadline, or a
	// reset with the operation in flight.
	OutcomeLost
)

func (o Outcome) String() string {
	switch o {
	case OutcomeInstalled:
		return "installed"
	case OutcomeDiverted:
		return "diverted"
	case OutcomeRejected:
		return "rejected"
	case OutcomeLost:
		return "lost"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// classLedger accumulates one class's outcome totals. Counters are
// atomics: driver workers complete operations concurrently.
type classLedger struct {
	submitted  atomic.Uint64
	installed  atomic.Uint64
	diverted   atomic.Uint64
	rejected   atomic.Uint64
	lost       atomic.Uint64
	violations atomic.Uint64
}

// Ledger tracks per-class operation outcomes and agent-reported guarantee
// violations. It holds no clock, so it stays inside the deterministic
// package boundary.
type Ledger struct {
	classes []classLedger
}

// NewLedger returns a ledger for the given number of service classes
// (minimum 1).
func NewLedger(classes int) *Ledger {
	if classes < 1 {
		classes = 1
	}
	return &Ledger{classes: make([]classLedger, classes)}
}

// Classes is the number of service classes tracked.
func (l *Ledger) Classes() int { return len(l.classes) }

// clamp folds out-of-range classes into the last one rather than
// panicking mid-run.
func (l *Ledger) clamp(class uint8) *classLedger {
	if int(class) >= len(l.classes) {
		return &l.classes[len(l.classes)-1]
	}
	return &l.classes[class]
}

// Submitted counts one operation handed to the target.
func (l *Ledger) Submitted(class uint8) {
	l.clamp(class).submitted.Add(1)
}

// Finished counts one completed operation; violation marks an
// agent-reported guarantee violation.
func (l *Ledger) Finished(class uint8, out Outcome, violation bool) {
	c := l.clamp(class)
	switch out {
	case OutcomeInstalled:
		c.installed.Add(1)
	case OutcomeDiverted:
		c.diverted.Add(1)
	case OutcomeRejected:
		c.rejected.Add(1)
	case OutcomeLost:
		c.lost.Add(1)
	}
	if violation {
		c.violations.Add(1)
	}
}

// Register exposes the ledger's per-class outcome counters on an obs
// registry, so a live run's /metrics shows loadgen progress alongside the
// fleet's own telemetry.
func (l *Ledger) Register(reg *obs.Registry) {
	for i := range l.classes {
		c := &l.classes[i]
		labels := obs.Labels("class", fmt.Sprintf("%d", i))
		for _, m := range []struct {
			name string
			v    *atomic.Uint64
		}{
			{"loadgen_submitted_total", &c.submitted},
			{"loadgen_installed_total", &c.installed},
			{"loadgen_diverted_total", &c.diverted},
			{"loadgen_rejected_total", &c.rejected},
			{"loadgen_lost_total", &c.lost},
			{"loadgen_violations_total", &c.violations},
		} {
			v := m.v
			reg.CounterFunc(m.name, labels, "loadgen outcome count", v.Load)
		}
	}
}

// ClassStats is a point-in-time snapshot of one class's ledger.
type ClassStats struct {
	Submitted  uint64
	Installed  uint64
	Diverted   uint64
	Rejected   uint64
	Lost       uint64
	Violations uint64
}

// Completed is the number of operations that reached any terminal state.
func (s ClassStats) Completed() uint64 {
	return s.Installed + s.Diverted + s.Rejected + s.Lost
}

// ViolationRate is violations per submitted operation.
func (s ClassStats) ViolationRate() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.Violations) / float64(s.Submitted)
}

// LossRate is lost operations per submitted operation.
func (s ClassStats) LossRate() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.Lost) / float64(s.Submitted)
}

// Class snapshots one class.
func (l *Ledger) Class(class int) ClassStats {
	if class < 0 || class >= len(l.classes) {
		return ClassStats{}
	}
	c := &l.classes[class]
	return ClassStats{
		Submitted:  c.submitted.Load(),
		Installed:  c.installed.Load(),
		Diverted:   c.diverted.Load(),
		Rejected:   c.rejected.Load(),
		Lost:       c.lost.Load(),
		Violations: c.violations.Load(),
	}
}

// Totals merges every class into one snapshot.
func (l *Ledger) Totals() ClassStats {
	var total ClassStats
	for i := range l.classes {
		s := l.Class(i)
		total.Submitted += s.Submitted
		total.Installed += s.Installed
		total.Diverted += s.Diverted
		total.Rejected += s.Rejected
		total.Lost += s.Lost
		total.Violations += s.Violations
	}
	return total
}
