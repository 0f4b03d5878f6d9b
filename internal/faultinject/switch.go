package faultinject

import (
	"math/rand"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/tcam"
	"hermes/internal/workload"
)

// The switch seam: TCAM ops that are acked but dropped (or served slowly),
// migrations cut off at a Fig.-7 step boundary, and whole-switch
// crash/restart or truncation events on a virtual-time schedule. All three
// plug into hooks the production packages expose (tcam.OpFaultHook,
// (*core.Agent).SetMigrationInterrupt, and the Agent's CrashRestart/Reconcile
// API); none of them require the production code to know about chaos.

// OpFaultConfig parameterizes TCAM-op fault injection. With a Script the
// listed faults are consumed in op order and probabilities are ignored.
type OpFaultConfig struct {
	Seed int64
	// DropProb acks the op without applying it (a lost update: the caller
	// sees success, the hardware disagrees until the next Reconcile).
	DropProb float64
	// SlowProb adds SlowBy to the op's modeled latency.
	SlowProb float64
	SlowBy   time.Duration
	// Script, when non-empty, replaces the seeded schedule.
	Script []tcam.OpFault
}

// OpFaults builds deterministic tcam.OpFaultHook values. One OpFaults may
// feed several tables; each Hook() call derives an independent stream.
type OpFaults struct {
	cfg     OpFaultConfig
	streams uint64
	dropped int
	cursor  int
}

// NewOpFaults builds a plan from the config.
func NewOpFaults(cfg OpFaultConfig) *OpFaults { return &OpFaults{cfg: cfg} }

// Dropped reports how many ops the hooks dropped.
func (o *OpFaults) Dropped() int { return o.dropped }

// Hook returns a deterministic fault hook for one table. The simulation is
// single-threaded, so the hook needs no locking; determinism comes from
// consuming one seeded stream in op order.
func (o *OpFaults) Hook() tcam.OpFaultHook {
	idx := o.streams
	o.streams++
	rng := workload.SubStream(o.cfg.Seed, idx)
	return func(op tcam.Op, id classifier.RuleID) tcam.OpFault {
		var f tcam.OpFault
		if len(o.cfg.Script) > 0 {
			if o.cursor < len(o.cfg.Script) {
				f = o.cfg.Script[o.cursor]
				o.cursor++
			}
		} else {
			drop := rng.Float64()
			slow := rng.Float64()
			if drop < o.cfg.DropProb {
				f.Drop = true
			}
			if slow < o.cfg.SlowProb {
				f.Extra = o.cfg.SlowBy
			}
		}
		if f.Drop {
			o.dropped++
		}
		return f
	}
}

// CrashPoint models the switch's update engine dying in the middle of a
// burst of TCAM writes — a cache rebalance, say, with a cover set half
// installed. Ops pass normally until the trigger matches one; that op and
// every later one on every hooked table is acked but lost, until Restart.
// What landed before the crash stays in the tables, so unlike a power cycle
// the agent is left facing a half-applied update; the harness marks it
// divergent and reconciles, as a controller would on noticing the outage.
type CrashPoint struct {
	trigger func(op tcam.Op, id classifier.RuleID) bool
	down    bool
	lost    int
}

// NewCrashPoint builds a crash point that fires on the first op the trigger
// matches. The trigger must be deterministic.
func NewCrashPoint(trigger func(op tcam.Op, id classifier.RuleID) bool) *CrashPoint {
	return &CrashPoint{trigger: trigger}
}

// Hook returns the fault hook to install on each table the crash takes down.
func (c *CrashPoint) Hook() tcam.OpFaultHook {
	return func(op tcam.Op, id classifier.RuleID) tcam.OpFault {
		if !c.down && c.trigger != nil && c.trigger(op, id) {
			c.down = true
		}
		if c.down {
			c.lost++
		}
		return tcam.OpFault{Drop: c.down}
	}
}

// Lost reports how many ops the crash swallowed.
func (c *CrashPoint) Lost() int { return c.lost }

// Restart brings the update engine back: ops pass again and the trigger is
// spent.
func (c *CrashPoint) Restart() {
	c.down = false
	c.trigger = nil
}

// InterruptConfig parameterizes migration-step interruption. With a Script
// the listed steps fire in order: each boundary check matching the script
// head pops it and interrupts; checks for other steps pass. Without a
// script, every boundary check interrupts independently with Prob.
type InterruptConfig struct {
	Seed int64
	Prob float64
	// Script lists the step boundaries to cut, in the order they should
	// fire. Nil means use the seeded schedule.
	Script []core.MigrationStep
}

// Interrupter builds a deterministic core migration-interrupt hook.
type Interrupter struct {
	cfg    InterruptConfig
	rng    *rand.Rand
	cursor int
	fired  int
}

// NewInterrupter builds a plan from the config.
func NewInterrupter(cfg InterruptConfig) *Interrupter {
	return &Interrupter{cfg: cfg, rng: workload.SubStream(cfg.Seed, 0)}
}

// Fired reports how many interrupts the plan has injected.
func (i *Interrupter) Fired() int { return i.fired }

// Exhausted reports whether a scripted plan has consumed its whole script.
func (i *Interrupter) Exhausted() bool {
	return len(i.cfg.Script) > 0 && i.cursor >= len(i.cfg.Script)
}

// Hook returns the function to install via
// (*core.Agent).SetMigrationInterrupt.
func (i *Interrupter) Hook() func(step core.MigrationStep, now time.Duration) bool {
	return func(step core.MigrationStep, _ time.Duration) bool {
		if len(i.cfg.Script) > 0 {
			if i.cursor < len(i.cfg.Script) && i.cfg.Script[i.cursor] == step {
				i.cursor++
				i.fired++
				return true
			}
			return false
		}
		if i.rng.Float64() < i.cfg.Prob {
			i.fired++
			return true
		}
		return false
	}
}

// SwitchEventKind names one whole-switch fault.
type SwitchEventKind uint8

// The switch-level fault kinds a schedule can carry.
const (
	// EventCrash power-cycles the switch: all physical entries vanish.
	EventCrash SwitchEventKind = iota
	// EventTruncateShadow keeps only the first Arg shadow entries, as a
	// crash during a bulk write would.
	EventTruncateShadow
)

func (k SwitchEventKind) String() string {
	switch k {
	case EventCrash:
		return "crash"
	case EventTruncateShadow:
		return "truncate-shadow"
	default:
		return "unknown"
	}
}

// SwitchEvent is one scheduled whole-switch fault in virtual time.
type SwitchEvent struct {
	At   time.Duration
	Kind SwitchEventKind
	// Arg is the kind-specific parameter (entries kept for truncation).
	Arg int
}

// SwitchSchedule generates n whole-switch fault events spread uniformly
// over (0, horizon], sorted by time. The same seed yields the same
// schedule.
func SwitchSchedule(seed int64, horizon time.Duration, n int) []SwitchEvent {
	rng := workload.SubStream(seed, 7)
	events := make([]SwitchEvent, 0, n)
	for i := 0; i < n; i++ {
		ev := SwitchEvent{
			At: time.Duration(rng.Int63n(int64(horizon))) + 1,
		}
		if rng.Intn(2) == 0 {
			ev.Kind = EventCrash
		} else {
			ev.Kind = EventTruncateShadow
			ev.Arg = rng.Intn(8)
		}
		events = append(events, ev)
	}
	sortEvents(events)
	return events
}

func sortEvents(events []SwitchEvent) {
	// Insertion sort: schedules are short and the dependency footprint
	// stays minimal.
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].At < events[j-1].At; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
}

// Apply fires every event due at or before now against the agent and
// returns the rest. Truncation marks the agent divergent; the caller
// decides when to Reconcile (immediately for a repair-loop harness, later
// to widen the fault window).
func Apply(a *core.Agent, events []SwitchEvent, now time.Duration) []SwitchEvent {
	i := 0
	for ; i < len(events) && events[i].At <= now; i++ {
		switch events[i].Kind {
		case EventCrash:
			a.CrashRestart(events[i].At)
		case EventTruncateShadow:
			a.TruncateShadow(events[i].Arg)
		}
	}
	return events[i:]
}
