package core

import (
	"time"

	"hermes/internal/obs"
)

// Metrics are the agent's cumulative counters and latency distributions.
// Latencies are held in fixed-footprint obs histograms (nanosecond units)
// instead of the old append-forever sample slices, so a long-running agent's
// metric state is bounded regardless of how many flow-mods it serves.
type Metrics struct {
	// Inserts counts every controller-issued insertion.
	Inserts int
	// ShadowInserts counts insertions that took the guaranteed path.
	ShadowInserts int
	// MainInserts counts insertions that took the unguaranteed main path.
	MainInserts int
	// Bypasses counts §4.2 lowest-priority appends.
	Bypasses int
	// Redundant counts rules subsumed by the main table (Fig. 5a).
	Redundant int
	// RateLimited counts insertions diverted by the token bucket.
	RateLimited int
	// Oversized counts insertions diverted for exceeding MaxPartitions.
	Oversized int
	// ShadowFull counts insertions diverted because the shadow was full.
	ShadowFull int
	// Deletes and Modifies count the other flow-mod kinds.
	Deletes, Modifies int

	// PartitionsInstalled counts physical shadow entries created.
	PartitionsInstalled int
	// RulesCut counts rules Algorithm 1 actually fragmented.
	RulesCut int
	// Repartitions counts shadow rules re-cut after main-table changes.
	Repartitions int

	// Violations counts guaranteed insertions that exceeded the bound.
	Violations int

	// Migrations counts Rule Manager migrations; MigratedRules the rules
	// they moved; MigrationBusy the total background-copy time.
	Migrations    int
	MigratedRules int
	MigrationBusy time.Duration

	// ExposedRuleSeconds accumulates rule·seconds during which the naive
	// migration ablation left rules installed in neither table.
	ExposedRuleSeconds float64

	// MigrationAborts counts migrations cancelled before any physical step
	// (a fault at the copy/optimize steps, or Reconcile dropping a copy);
	// MigrationInterrupts counts migrations cut off mid-apply (a fault at
	// the insert/empty steps), which leave partial state for Reconcile.
	MigrationAborts     int
	MigrationInterrupts int

	// SwitchRestarts counts modeled switch crash/power-cycles.
	SwitchRestarts int

	// Reconciles counts Reconcile passes; ReconcileStale the stale or
	// orphaned physical entries they deleted; ReconcileRepaired the rules
	// whose physical realization they rebuilt.
	Reconciles        int
	ReconcileStale    int
	ReconcileRepaired int

	// GuaranteedLatency holds per-insertion latencies (ns) on the
	// guaranteed path; AllLatency includes the unguaranteed paths too.
	// The histograms are shared (by pointer) between copies of a Metrics
	// value: Agent.Metrics() hands out a cheap counter copy whose
	// histograms alias the live ones; Histogram.Clone freezes one.
	GuaranteedLatency *obs.Histogram
	AllLatency        *obs.Histogram
}

// newMetrics returns a Metrics with live histograms attached.
func newMetrics() Metrics {
	return Metrics{
		GuaranteedLatency: obs.NewHistogram(),
		AllLatency:        obs.NewHistogram(),
	}
}

// observeLatency records one operation latency, optionally under the
// guarantee. Both histograms are fixed-footprint and lock-free.
func (m *Metrics) observeLatency(lat time.Duration, guaranteed bool) {
	if m.AllLatency != nil {
		m.AllLatency.RecordDuration(lat)
	}
	if guaranteed && m.GuaranteedLatency != nil {
		m.GuaranteedLatency.RecordDuration(lat)
	}
}

// GuaranteedCount returns the number of guaranteed-path latency samples —
// the denominator of ViolationRate, previously len(GuaranteedLatenciesMS).
func (m Metrics) GuaranteedCount() int {
	if m.GuaranteedLatency == nil {
		return 0
	}
	return int(m.GuaranteedLatency.Count())
}

// GuaranteedQuantileMS returns the q-th quantile of guaranteed-path
// insertion latency in milliseconds (the unit of the paper's figures).
func (m Metrics) GuaranteedQuantileMS(q float64) float64 {
	if m.GuaranteedLatency == nil {
		return 0
	}
	return m.GuaranteedLatency.Quantile(q) / 1e6
}

// ViolationRate returns violations over guaranteed insertions.
func (m Metrics) ViolationRate() float64 {
	n := m.GuaranteedCount()
	if n == 0 {
		return 0
	}
	return float64(m.Violations) / float64(n)
}

// MigrationsPerSecond normalizes the migration count over a run duration.
func (m Metrics) MigrationsPerSecond(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(m.Migrations) / elapsed.Seconds()
}
