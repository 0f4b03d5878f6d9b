package loadgen

import (
	"encoding/json"
	"fmt"
)

// ClassSLO is the budget one service class must meet. The paper's
// per-class insertion guarantee (Eq. 1: every guaranteed insertion
// completes within its bound) is checked by the agent itself, per op; the
// SLO bounds how often the agent reported a breach and how often an op got
// no answer at all.
type ClassSLO struct {
	Class uint8 `json:"class"`
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
	Target         string  `json:"target"`          // "fleet" or "fleet-batch"
	Switches       int     `json:"switches"`
	QueueDepth     int     `json:"queue_depth"` // per switch: the fleet's Config.QueueDepth
	Arrivals       int     `json:"arrivals"`
	Shed           int     `json:"shed"` // ops dropped at a full switch, counted lost
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

// Evaluate compares a ledger against the SLO and produces the verdict.
// A class breaches when its violation or loss rate exceeds the declared
// maximum. A class that saw no traffic never breaches (its rates are
// vacuous), but an overall run with zero submitted operations fails — a
// driver that sent nothing must not pass the gate.
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
			ViolationRate: s.ViolationRate(),
			LossRate:      s.LossRate(),
		}
		if b, ok := budgets[uint8(i)]; ok && s.Submitted > 0 {
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
