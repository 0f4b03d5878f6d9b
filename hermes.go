// Package hermes is the public API of the Hermes reproduction: a framework
// that provides tight performance guarantees for SDN switch control-plane
// actions (rule insertion, modification, deletion) by partitioning a
// switch's TCAM into a small, bounded shadow table — which services all
// guaranteed insertions and therefore bounds entry-shift counts and
// latency — and a large main table that holds the steady-state rule set.
//
// The package re-exports the building blocks a downstream user needs:
//
//   - switch and TCAM models calibrated against published measurements
//     (NewSwitch, the Pica8P3290 / Dell8132F / HP5406zl profiles);
//   - the Hermes agent itself (NewAgent), combining the Gate Keeper
//     (admission control, Algorithm-1 partitioning, the lowest-priority
//     bypass) and the Rule Manager (predictive shadow→main migration);
//   - the operator-facing QoS API of the paper's §7 (Registry with
//     CreateTCAMQoS / DeleteQoS / ModQoSConfig / ModQoSMatch, and
//     QoSOverheads for exploring the latency/TCAM-space trade-off);
//   - rule algebra (Rule, Match, Prefix) and the workload predictors
//     (NewEWMA, NewCubicSpline, NewARMA with Slack/Deadzone correctors).
//
// # Quickstart
//
//	sw := hermes.NewSwitch("tor-1", hermes.Pica8P3290)
//	agent, err := hermes.NewAgent(sw, hermes.Config{Guarantee: 5 * time.Millisecond})
//	if err != nil { ... }
//	rule := hermes.Rule{
//		ID:       1,
//		Match:    hermes.DstMatch(hermes.MustParsePrefix("10.1.0.0/16")),
//		Priority: 10,
//		Action:   hermes.Action{Type: hermes.ActionForward, Port: 3},
//	}
//	res, err := agent.Insert(now, rule) // res.Completed-now ≤ 5ms on the guaranteed path
//
// Time is virtual (time.Duration offsets) so the library composes with the
// included discrete-event simulator; wall-clock users simply pass
// monotonically increasing offsets.
package hermes

import (
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/predict"
	"hermes/internal/rulecache"
	"hermes/internal/tcam"
	"hermes/internal/verify"
)

// Rule algebra types (see internal/classifier for full documentation).
type (
	// Rule is one logical flow-table entry.
	Rule = classifier.Rule
	// RuleID identifies a rule across the logical table.
	RuleID = classifier.RuleID
	// Match is a rule's header-space region (dst and src prefixes).
	Match = classifier.Match
	// Prefix is an IPv4 prefix.
	Prefix = classifier.Prefix
	// Action is what a matching rule does with a packet.
	Action = classifier.Action
	// ActionType enumerates forwarding actions.
	ActionType = classifier.ActionType
)

// Forwarding actions.
const (
	ActionForward    = classifier.ActionForward
	ActionDrop       = classifier.ActionDrop
	ActionController = classifier.ActionController
	ActionGotoNext   = classifier.ActionGotoNext
)

// Prefix and match constructors.
var (
	// ParsePrefix parses "a.b.c.d/len" notation.
	ParsePrefix = classifier.ParsePrefix
	// MustParsePrefix is ParsePrefix that panics on error.
	MustParsePrefix = classifier.MustParsePrefix
	// NewPrefix masks addr to plen bits.
	NewPrefix = classifier.NewPrefix
	// DstMatch builds a destination-only match.
	DstMatch = classifier.DstMatch
)

// Switch and TCAM modeling types.
type (
	// Switch models one SDN switch: TCAM slices plus a serial
	// control-plane processor.
	Switch = tcam.Switch
	// Table is one TCAM slice.
	Table = tcam.Table
	// Profile describes a switch model's control-plane performance.
	Profile = tcam.Profile
	// CalPoint is one (occupancy, updates/s) calibration measurement.
	CalPoint = tcam.CalPoint
)

// Built-in switch profiles, calibrated against the paper's Table 1.
var (
	Pica8P3290 = tcam.Pica8P3290
	Dell8132F  = tcam.Dell8132F
	HP5406zl   = tcam.HP5406zl
)

// NewSwitch creates a switch with a monolithic TCAM table.
func NewSwitch(name string, profile *Profile) *Switch { return tcam.NewSwitch(name, profile) }

// Profiles returns the built-in switch profiles.
func Profiles() []*Profile { return tcam.Profiles() }

// ProfileByName looks up a built-in switch profile.
func ProfileByName(name string) (*Profile, bool) { return tcam.ProfileByName(name) }

// Hermes agent types.
type (
	// Agent is one switch's Hermes instance (Gate Keeper + Rule Manager).
	Agent = core.Agent
	// Config tunes an agent; only Guarantee is mandatory.
	Config = core.Config
	// Result describes one control-plane action's outcome.
	Result = core.Result
	// InsertPath reports the route an insertion took.
	InsertPath = core.InsertPath
	// Metrics are an agent's cumulative counters.
	Metrics = core.Metrics
	// Predicate selects guaranteed rules.
	Predicate = core.Predicate
	// MigrationMode selects predictive Hermes or Hermes-SIMPLE.
	MigrationMode = core.MigrationMode
)

// Insertion paths.
const (
	PathShadow    = core.PathShadow
	PathBypass    = core.PathBypass
	PathMain      = core.PathMain
	PathRedundant = core.PathRedundant
	PathSoft      = core.PathSoft
)

// Flow-driven rule caching hierarchy (Config.Cache): the carved TCAM
// becomes the top tier of a two-tier lookup pipeline backed by an unbounded
// switch-CPU software table, with popularity-driven promotion/demotion and
// dependency-safe eviction via cover rules.
type (
	// CacheConfig tunes the caching hierarchy.
	CacheConfig = rulecache.Config
	// CachePolicy selects the promotion/eviction policy.
	CachePolicy = rulecache.Policy
	// CacheSnapshot is a point-in-time copy of the hierarchy's metrics.
	CacheSnapshot = rulecache.Snapshot
	// SoftProfile models the software tier's per-operation latencies.
	SoftProfile = rulecache.SoftProfile
)

// Cache policies.
const (
	CacheLRU       = rulecache.PolicyLRU
	CacheLFU       = rulecache.PolicyLFU
	CacheCostAware = rulecache.PolicyCostAware
)

// Migration modes.
const (
	MigrationPredictive = core.MigrationPredictive
	MigrationThreshold  = core.MigrationThreshold
)

// NewAgent creates a Hermes agent on an un-carved, empty switch: it sizes
// the shadow table from cfg.Guarantee, carves the TCAM, and computes the
// admissible insertion rate (Equation 2).
func NewAgent(sw *Switch, cfg Config) (*Agent, error) { return core.New(sw, cfg) }

// Operator-facing QoS API (§7).
type (
	// Registry manages Hermes agents across a switch fleet and implements
	// CreateTCAMQoS / DeleteQoS / ModQoSConfig / ModQoSMatch.
	Registry = core.Registry
	// ShadowID is the descriptor CreateTCAMQoS returns.
	ShadowID = core.ShadowID
	// QoSInfo summarizes one guarantee's configuration and cost.
	QoSInfo = core.QoSInfo
)

// NewRegistry returns an empty QoS registry.
func NewRegistry() *Registry { return core.NewRegistry() }

// QoSOverheads previews the TCAM fraction a guarantee would cost on a
// switch profile without configuring anything.
func QoSOverheads(profile *Profile, guarantee time.Duration) float64 {
	return core.QoSOverheads(profile, guarantee)
}

// Workload predictors and correctors (§5.1).
type (
	// Predictor forecasts the next value of a time series.
	Predictor = predict.Predictor
	// Corrector inflates predictions to absorb forecast error.
	Corrector = predict.Corrector
	// Slack inflates predictions by a constant factor.
	Slack = predict.Slack
	// Deadzone inflates predictions by a constant count.
	Deadzone = predict.Deadzone
)

// Predictor constructors.
var (
	// NewEWMA returns an exponentially weighted moving average predictor.
	NewEWMA = predict.NewEWMA
	// NewCubicSpline returns the paper's preferred spline predictor.
	NewCubicSpline = predict.NewCubicSpline
	// NewARMA returns an ARMA(p,1) predictor.
	NewARMA = predict.NewARMA
)

// Multi-table pipeline support (§6: Supporting Multiple TCAM Tables).
type (
	// Pipeline is a multi-table switch under per-table Hermes management.
	Pipeline = core.Pipeline
	// TableSpec configures one logical table of a pipeline.
	TableSpec = core.TableSpec
	// PipelineTable is one logical table at runtime.
	PipelineTable = core.PipelineTable
	// MissBehavior is a logical table's action on lookup miss.
	MissBehavior = core.MissBehavior
	// PacketVerdict is the outcome of a pipeline lookup.
	PacketVerdict = core.PacketVerdict
)

// Table-miss behaviours.
const (
	MissGotoNext   = core.MissGotoNext
	MissController = core.MissController
	MissDrop       = core.MissDrop
)

// Pipeline lookup verdicts.
const (
	VerdictForward    = core.VerdictForward
	VerdictController = core.VerdictController
	VerdictDrop       = core.VerdictDrop
)

// NewPipeline builds a multi-table pipeline on a switch profile, carving
// each logical table independently (different tables may carry different
// guarantees).
func NewPipeline(name string, profile *Profile, specs []TableSpec) (*Pipeline, error) {
	return core.NewPipeline(name, profile, specs)
}

// Exact pipeline verification (§4's correctness guarantee, proven rather
// than sampled).
type (
	// Counterexample is a packet on which two classifiers disagree.
	Counterexample = verify.Counterexample
)

// VerifyAgent proves an agent's shadow/main pipeline equivalent to its
// logical reference table by exhaustive region decomposition. The agent
// must have been created with Config.TrackLogical. A nil Counterexample
// means provable equivalence.
func VerifyAgent(a *Agent) (*Counterexample, error) { return verify.Agent(a) }
