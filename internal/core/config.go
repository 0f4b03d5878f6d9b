// Package core implements the Hermes framework itself: the Gate Keeper and
// Rule Manager that together provide tight performance guarantees for TCAM
// control-plane actions (paper §3–§5, §7).
//
// An Agent wraps one switch. It carves the switch's TCAM into a small
// shadow slice and a large main slice, routes guaranteed insertions into
// the bounded shadow slice (bounding shift counts and therefore insertion
// latency), keeps the two slices semantically identical to one monolithic
// table via Algorithm 1 partitioning, and predictively migrates rules
// shadow→main in the background before the shadow table can overflow.
package core

import (
	"time"

	"hermes/internal/classifier"
	"hermes/internal/predict"
	"hermes/internal/rulecache"
)

// Predicate selects the rules that receive the performance guarantee
// (the match-predicate argument of CreateTCAMQoS, §7). A nil Predicate
// guards every rule.
type Predicate func(classifier.Rule) bool

// MigrationMode selects how the Rule Manager decides when to migrate.
type MigrationMode int

const (
	// MigrationPredictive uses a workload predictor plus corrector to
	// anticipate shadow-table growth (the Hermes default, §5.1).
	MigrationPredictive MigrationMode = iota
	// MigrationThreshold migrates when shadow occupancy crosses a fixed
	// fraction of capacity — the Hermes-SIMPLE baseline of §8.5.
	MigrationThreshold
)

// Config tunes one Hermes agent. The zero value is completed by
// (*Config).withDefaults; only Guarantee is mandatory.
type Config struct {
	// Guarantee is the requested per-insertion latency bound (e.g. 5ms).
	Guarantee time.Duration

	// Predicate selects guaranteed rules; nil guards all rules.
	Predicate Predicate

	// Predictor forecasts per-tick rule arrivals. Defaults to
	// CubicSpline(16), the paper's best performer.
	Predictor predict.Predictor

	// Corrector inflates predictions to absorb error. Defaults to
	// Slack{Factor: 1.0} (100% slack), the paper's default (§8.6).
	Corrector predict.Corrector

	// TickInterval is the Rule Manager's prediction/migration period.
	// Defaults to 10ms.
	TickInterval time.Duration

	// Mode selects predictive Hermes or Hermes-SIMPLE.
	Mode MigrationMode

	// Threshold is the occupancy fraction (0..1) that triggers migration
	// in MigrationThreshold mode. 0 means "migrate whenever non-empty".
	Threshold float64

	// MaxPartitions bounds the fragments a single rule may shatter into
	// before the Gate Keeper gives up and installs it directly into the
	// main table (footnote 5 in §4.2: pathological rules such as a
	// lowest-priority 0.0.0.0/0 would overlap everything). Defaults to 16.
	MaxPartitions int

	// DisableLowPriorityBypass turns off the §4.2 optimization that sends
	// lowest-priority rules straight to the main table. For ablations.
	DisableLowPriorityBypass bool

	// DisableMergeOptimization skips the Merge step of Algorithm 1
	// (line 7), installing raw fragments. For ablations.
	DisableMergeOptimization bool

	// NaiveMigration empties the shadow table *before* re-inserting
	// optimized rules into the main table instead of after, re-creating
	// the transient-miss window §5.2 warns about. For ablations; the
	// agent counts the exposed rule-seconds in Metrics.
	NaiveMigration bool

	// DisableRateLimit turns off the Gate Keeper's token bucket. For
	// ablations and for workloads that pre-shape their update rate.
	DisableRateLimit bool

	// AutoTuneSlack replaces the static Corrector with a
	// multiplicative-increase/decrease controller that adapts the slack
	// factor from observed violations — the self-tuning §8.6 proposes as
	// future work. The Corrector's Slack factor (if any) seeds the
	// controller.
	AutoTuneSlack bool

	// TrackLogical maintains a reference monolithic rule list inside the
	// agent so tests can verify two-table equivalence. Costs memory and
	// time; off by default.
	TrackLogical bool

	// LinearLookup reverts packet lookups to the full-scan reference path:
	// both TCAM slices scan every entry in order and the agent skips its
	// lock-free snapshot. Kept as the differential-testing oracle for the
	// trie-indexed default; off by default (indexed).
	LinearLookup bool

	// Cache, when non-nil, enables the flow-driven rule caching hierarchy
	// (DESIGN.md §16): the carved TCAM becomes the top tier of a two-tier
	// lookup pipeline backed by an unbounded switch-CPU software table,
	// with popularity-driven promotion/demotion between tiers and
	// dependency-safe eviction via cover rules. Capacity (the maximum
	// number of hardware-resident rules) must be positive.
	Cache *rulecache.Config

	// Observer, when non-nil, wires the agent into the obs subsystem:
	// per-class latency histograms, lifecycle trace events, and flight-
	// recorder captures on guarantee violations and reconcile repairs.
	// Because the Observer's instruments are owned by the caller, they
	// survive agent re-creation (the QoS re-carve path). Nil disables all
	// per-op observation beyond the always-on Metrics histograms.
	Observer *Observer
}

func (c Config) withDefaults() Config {
	if c.Predictor == nil {
		c.Predictor = predict.NewCubicSpline(16)
	}
	if c.Corrector == nil {
		c.Corrector = predict.Slack{Factor: 1.0}
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 10 * time.Millisecond
	}
	if c.MaxPartitions <= 0 {
		c.MaxPartitions = 16
	}
	return c
}

// InsertPath reports which route a flow-mod took through the Gate Keeper.
type InsertPath int

const (
	// PathShadow is the guaranteed path into the shadow table.
	PathShadow InsertPath = iota
	// PathBypass is the §4.2 lowest-priority append into the main table
	// (fast but formally unguaranteed; in practice it costs only the
	// floor latency).
	PathBypass
	// PathMain is the unguaranteed main-table path (predicate miss, rate
	// limit exceeded, shadow full, or excessive fragmentation).
	PathMain
	// PathRedundant means the rule was wholly subsumed by a
	// higher-priority main-table rule and nothing was installed (Fig. 5a).
	PathRedundant
	// PathSoft is the cached-mode path: the rule was installed into the
	// authoritative software tier (promotion into the hardware tier, if
	// any, is a background cache decision and not part of the result).
	PathSoft
)

func (p InsertPath) String() string {
	switch p {
	case PathShadow:
		return "shadow"
	case PathBypass:
		return "bypass"
	case PathMain:
		return "main"
	case PathRedundant:
		return "redundant"
	case PathSoft:
		return "soft"
	default:
		return "unknown"
	}
}

// Result describes the outcome of one control-plane action.
type Result struct {
	// Path is the route the action took.
	Path InsertPath
	// Latency is the modeled hardware service time of the action.
	Latency time.Duration
	// Completed is the virtual time at which the action finished,
	// including control-plane queueing.
	Completed time.Duration
	// Guaranteed reports whether the action was covered by the guarantee.
	Guaranteed bool
	// Violation reports a guaranteed action that exceeded the bound.
	Violation bool
	// Partitions is the number of shadow entries installed (0 for
	// redundant rules, 1 for unfragmented rules).
	Partitions int
}
