package loadgen

import (
	"encoding/json"
	"fmt"
	"time"
)

// ClassSLO is the budget one service class must meet. Zero-valued fields
// are unchecked, so an SLO can pin only the quantiles it cares about.
// The latency budgets are the paper's per-class insertion guarantees
// (Eq. 1: every guaranteed insertion completes within its budget; Eq. 2
// bounds the admissible rate for that to hold).
type ClassSLO struct {
	Class uint8 `json:"class"`
	// P50, P99, P999 bound the setup-latency quantiles.
	P50  time.Duration `json:"p50_budget_ns,omitempty"`
	P99  time.Duration `json:"p99_budget_ns,omitempty"`
	P999 time.Duration `json:"p999_budget_ns,omitempty"`
	// MaxViolationRate bounds agent-reported guarantee violations per
	// submitted operation. Negative disables the check; zero means "no
	// violations tolerated" only when ViolationRateSet is true.
	MaxViolationRate float64 `json:"max_violation_rate"`
	ViolationRateSet bool    `json:"violation_rate_set,omitempty"`
	// MaxLossRate bounds lost operations per submitted operation.
	MaxLossRate float64 `json:"max_loss_rate"`
	LossRateSet bool    `json:"loss_rate_set,omitempty"`
}

// SLO is the full declared objective: one budget per class, applied to
// every class whose index it names. Classes without a budget always
// pass.
type SLO struct {
	Classes []ClassSLO `json:"classes"`
}

// Uniform builds an SLO holding every one of n classes to the same
// budget.
func Uniform(n int, budget ClassSLO) SLO {
	s := SLO{Classes: make([]ClassSLO, n)}
	for i := range s.Classes {
		b := budget
		b.Class = uint8(i)
		s.Classes[i] = b
	}
	return s
}

// RunInfo is the measured context of one run, supplied by the driver
// (the deterministic core holds no clock and cannot compute rates).
type RunInfo struct {
	Seed           int64   `json:"seed"`
	ScheduleName   string  `json:"schedule"`
	ScheduleDigest string  `json:"schedule_digest"` // %016x of Schedule.Digest
	Target         string  `json:"target"`          // "wire" or "fleet"
	Switches       int     `json:"switches"`
	Arrivals       int     `json:"arrivals"`
	OfferedRate    float64 `json:"offered_rate_per_sec"`
	AchievedRate   float64 `json:"achieved_rate_per_sec"`
	WallSeconds    float64 `json:"wall_seconds"`
}

// ClassReport is the measured outcome of one class next to its budget.
type ClassReport struct {
	Class         uint8   `json:"class"`
	Submitted     uint64  `json:"submitted"`
	Installed     uint64  `json:"installed"`
	Diverted      uint64  `json:"diverted"`
	Rejected      uint64  `json:"rejected"`
	Lost          uint64  `json:"lost"`
	Violations    uint64  `json:"violations"`
	P50ms         float64 `json:"p50_ms"`
	P99ms         float64 `json:"p99_ms"`
	P999ms        float64 `json:"p999_ms"`
	ViolationRate float64 `json:"violation_rate"`
	LossRate      float64 `json:"loss_rate"`
	// Breaches lists this class's budget failures, human-readable.
	Breaches []string `json:"breaches,omitempty"`
}

// Verdict is the machine-readable outcome CI gates on: pass/fail, the
// reasons, and the full per-class evidence.
type Verdict struct {
	Pass     bool          `json:"pass"`
	Breaches []string      `json:"breaches,omitempty"`
	Run      RunInfo       `json:"run"`
	Classes  []ClassReport `json:"classes"`
}

// ms renders a quantile in milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }

// checkQuantile appends a breach when a measured quantile exceeds its
// budget.
func checkQuantile(breaches []string, class uint8, name string, got float64, budget time.Duration) []string {
	if budget <= 0 {
		return breaches
	}
	if got > float64(budget) {
		breaches = append(breaches, fmt.Sprintf(
			"class %d: %s setup latency %s > budget %s",
			class, name, time.Duration(got), budget))
	}
	return breaches
}

// Evaluate compares a ledger against the SLO and produces the verdict.
// A class breaches when a bounded quantile of its setup-latency
// distribution exceeds its budget, or its violation or loss rate
// exceeds the declared maximum. A class that saw no traffic never
// breaches (its quantiles are vacuous), but an overall run with zero
// submitted operations fails — a driver that sent nothing must not pass
// the gate.
func Evaluate(l *Ledger, slo SLO, run RunInfo) *Verdict {
	v := &Verdict{Pass: true, Run: run}
	budgets := make(map[uint8]ClassSLO, len(slo.Classes))
	for _, b := range slo.Classes {
		budgets[b.Class] = b
	}
	var submittedTotal uint64
	for i := 0; i < l.Classes(); i++ {
		s := l.Class(i)
		submittedTotal += s.Submitted
		rep := ClassReport{
			Class:         uint8(i),
			Submitted:     s.Submitted,
			Installed:     s.Installed,
			Diverted:      s.Diverted,
			Rejected:      s.Rejected,
			Lost:          s.Lost,
			Violations:    s.Violations,
			P50ms:         ms(s.Setup.Quantile(0.50)),
			P99ms:         ms(s.Setup.Quantile(0.99)),
			P999ms:        ms(s.Setup.Quantile(0.999)),
			ViolationRate: s.ViolationRate(),
			LossRate:      s.LossRate(),
		}
		if b, ok := budgets[uint8(i)]; ok && s.Submitted > 0 {
			rep.Breaches = checkQuantile(rep.Breaches, b.Class, "p50", s.Setup.Quantile(0.50), b.P50)
			rep.Breaches = checkQuantile(rep.Breaches, b.Class, "p99", s.Setup.Quantile(0.99), b.P99)
			rep.Breaches = checkQuantile(rep.Breaches, b.Class, "p999", s.Setup.Quantile(0.999), b.P999)
			if (b.ViolationRateSet || b.MaxViolationRate > 0) && b.MaxViolationRate >= 0 &&
				rep.ViolationRate > b.MaxViolationRate {
				rep.Breaches = append(rep.Breaches, fmt.Sprintf(
					"class %d: violation rate %.4f > budget %.4f",
					b.Class, rep.ViolationRate, b.MaxViolationRate))
			}
			if (b.LossRateSet || b.MaxLossRate > 0) && b.MaxLossRate >= 0 &&
				rep.LossRate > b.MaxLossRate {
				rep.Breaches = append(rep.Breaches, fmt.Sprintf(
					"class %d: loss rate %.4f > budget %.4f",
					b.Class, rep.LossRate, b.MaxLossRate))
			}
		}
		v.Breaches = append(v.Breaches, rep.Breaches...)
		v.Classes = append(v.Classes, rep)
	}
	if submittedTotal == 0 {
		v.Breaches = append(v.Breaches, "no operations submitted")
	}
	v.Pass = len(v.Breaches) == 0
	return v
}

// JSON renders the verdict with stable field order and indentation —
// what -out writes and scripts/check.sh greps for "pass".
func (v *Verdict) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("loadgen: encode verdict: %w", err)
	}
	return append(b, '\n'), nil
}
