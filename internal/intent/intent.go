// Package intent is the declarative control plane over the fleet: a
// versioned desired-rule-set store plus per-switch level-triggered
// reconcile loops, the layer that turns "make the network look like
// this" into the minimal flow-mod plans the imperative fleet API
// executes (the controller half of the paper's Fig. 2, made
// self-healing).
//
// The store holds the controller's desired rules, generation-numbered
// and partitioned per switch by an injected route function. Each switch
// has a key in a deduplicating workqueue; every trigger — a desired-set
// update, a switch reconnect, an injected fault, the periodic resync
// tick — collapses into the same pending key, and the reconcile step is
// level-triggered: it diffs the full desired partition against the rules
// the switch actually holds and applies the minimal insert/modify/delete
// plan, so missed or coalesced triggers can never strand drift. Failures
// requeue with rate-limited exponential backoff; an unready switch (open
// circuit) requeues rather than erroring; only a permanent error (closed
// fleet) halts a key. Shards hash switches across independent queues,
// and an optional lease table hands shards between controller replicas
// for failover.
//
// Determinism contract: the package never reads the wall clock or global
// randomness — time comes from an injected Now func, delayed requeues go
// through an injected timer seam (time.AfterFunc in production, a
// VirtualClock in harnesses), and backoff jitter is hash-derived. All
// switch I/O crosses the Target interface, so the deterministic-lint
// call-graph chase stops at the seam: in production the Target is the
// fleet itself (*fleet.Fleet, wired by its NewController), harness
// targets wrap in-process agents, and the same reconcile code runs under
// both. The store is the only owner of desired state — the fleet redials
// and reports, it replays nothing.
package intent

import (
	"sort"

	"hermes/internal/classifier"
)

// OpKind names one mutation in a reconcile plan.
type OpKind uint8

// The plan mutation kinds, in the order a plan applies them.
const (
	// OpDelete removes a rule the switch holds but the store does not.
	OpDelete OpKind = iota + 1
	// OpModify rewrites a rule whose observed body drifted from desired.
	OpModify
	// OpInsert installs a rule the store holds but the switch does not.
	OpInsert
)

func (k OpKind) String() string {
	switch k {
	case OpDelete:
		return "delete"
	case OpModify:
		return "modify"
	case OpInsert:
		return "insert"
	default:
		return "unknown"
	}
}

// Op is one planned mutation. For deletes only Rule.ID is meaningful.
type Op struct {
	Kind OpKind
	Rule classifier.Rule
}

// Target is the switch-facing seam the reconciler drives: *fleet.Fleet in
// production, a fake in unit tests, simulated switches in the
// deterministic convergence harness. Methods must be safe for
// concurrent use when the controller runs in goroutine mode.
type Target interface {
	// Ready reports whether the switch can take requests now — false for
	// an open circuit breaker. An unready switch requeues with backoff
	// instead of counting as a reconcile failure.
	Ready(switchID string) bool
	// Observe returns the rule set the switch currently holds.
	Observe(switchID string) ([]classifier.Rule, error)
	// Apply executes a non-empty plan as Diff orders it — every delete,
	// then the modifies and inserts. The deletes must have taken effect
	// before the first insert is issued; beyond that the target may
	// pipeline or batch. It returns the first error; whatever a failed
	// plan left undone, the next reconcile's diff picks up.
	Apply(switchID string, plan []Op) error
}

// Diff computes the minimal plan driving observed to desired: deletes
// for extras, modifies for drift, inserts for gaps — deletes first (so a
// near-full TCAM frees entries before taking new ones), each group in
// ascending rule-ID order so identical states always yield the identical
// plan. Inputs need not be sorted; they are not mutated.
func Diff(desired, observed []classifier.Rule) []Op {
	want := make(map[classifier.RuleID]classifier.Rule, len(desired))
	for _, r := range desired {
		want[r.ID] = r
	}
	var dels, mods, ins []Op
	have := make(map[classifier.RuleID]bool, len(observed))
	for _, r := range observed {
		have[r.ID] = true
		w, ok := want[r.ID]
		switch {
		case !ok:
			dels = append(dels, Op{Kind: OpDelete, Rule: classifier.Rule{ID: r.ID}})
		case w != r:
			mods = append(mods, Op{Kind: OpModify, Rule: w})
		}
	}
	for _, r := range desired {
		if !have[r.ID] {
			ins = append(ins, Op{Kind: OpInsert, Rule: r})
		}
	}
	byID := func(ops []Op) {
		sort.Slice(ops, func(i, j int) bool { return ops[i].Rule.ID < ops[j].Rule.ID })
	}
	byID(dels)
	byID(mods)
	byID(ins)
	plan := make([]Op, 0, len(dels)+len(mods)+len(ins))
	plan = append(plan, dels...)
	plan = append(plan, mods...)
	plan = append(plan, ins...)
	return plan
}

// fnv64a hashes a string with FNV-1a; used for shard assignment and
// hash-derived backoff jitter.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix64 finalizes a word SplitMix64-style; composed with fnv64a it gives
// the stateless per-(key, attempt) jitter fractions.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
