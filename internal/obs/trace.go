package obs

import (
	"sync"
	"time"
)

// EventKind classifies one step in a flow-mod's lifecycle. The lifecycle
// mirrors the paper: the Gate Keeper admits a guaranteed insert into the
// shadow carve, bypasses lowest-priority rules straight to main (§4.2),
// diverts on token-bucket exhaustion or capacity, and the Rule Manager
// migrates shadow partitions to main through the four Fig.-7 steps. The
// intent reconciler's kinds (EvDirty through EvHalt) record the
// controller-side half: which switch was marked, requeued, converged or
// halted, and which shard lease changed hands. For them Rule is the
// switch's ordinal in intent.Config.Switches.
type EventKind uint8

const (
	EvNone         EventKind = iota
	EvAdmit                  // guaranteed insert admitted to shadow; A=partitions installed, B=latency ns
	EvBypass                 // §4.2 lowest-priority bypass straight to main; B=latency ns
	EvDivertRate             // token-bucket deny → main path; A=whole tokens available at deny time
	EvDivertSize             // rule too wide for shadow carve → main path
	EvDivertFull             // shadow occupancy exhausted → main path
	EvRedundant              // insert dropped: logically covered by installed rules
	EvMainInsert             // best-effort main-TCAM insert; B=latency ns
	EvDelete                 // rule deletion
	EvModify                 // rule modification
	EvViolation              // guarantee deadline exceeded; B=latency ns
	EvMigStep                // one Fig.-7 migration step applied; Step says which, A=rules touched
	EvMigDone                // migration completed; A=rules migrated
	EvMigAbort               // migration aborted before any main-TCAM write
	EvMigInterrupt           // migration interrupted mid-flight; reconcile required
	EvReconcile              // reconcile pass finished; A=stale, B=repaired
	EvCrash                  // switch crash/restart observed
	EvDirty                  // reconciler: a trigger marked the switch pending; A=store generation, B=intent.DirtyReason
	EvRequeue                // reconciler: failed or unready, requeued with backoff; A=attempt, B=delay ns
	EvConverge               // reconciler: the switch reached zero diff; A=covered generation, B=plan size
	EvLease                  // reconciler: the controller took a shard's lease; A=shard
	EvHalt                   // reconciler: a permanent error stopped the switch's key; A=attempt
)

var eventKindNames = [...]string{
	EvNone:         "none",
	EvAdmit:        "admit",
	EvBypass:       "bypass",
	EvDivertRate:   "divert-rate",
	EvDivertSize:   "divert-size",
	EvDivertFull:   "divert-full",
	EvRedundant:    "redundant",
	EvMainInsert:   "main-insert",
	EvDelete:       "delete",
	EvModify:       "modify",
	EvViolation:    "violation",
	EvMigStep:      "mig-step",
	EvMigDone:      "mig-done",
	EvMigAbort:     "mig-abort",
	EvMigInterrupt: "mig-interrupt",
	EvReconcile:    "reconcile",
	EvCrash:        "crash",
	EvDirty:        "dirty",
	EvRequeue:      "requeue",
	EvConverge:     "converge",
	EvLease:        "lease",
	EvHalt:         "halt",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one fixed-size lifecycle record. No pointers, no strings:
// recording an Event into the ring copies 48 bytes and allocates nothing.
type Event struct {
	Seq  uint64        // monotone sequence number, 1-based
	At   time.Duration // virtual timestamp supplied by the caller
	Kind EventKind
	Step uint8  // migration step ordinal (core.MigrationStep) for EvMigStep
	Rule uint64 // rule ID when the event concerns a single rule (switch ordinal for reconciler kinds), else 0
	A    uint64 // kind-specific datum (see EventKind comments)
	B    uint64 // kind-specific datum, usually latency in nanoseconds
}

// Capture is a flight-recorder snapshot: the last ≤N events at the moment
// a trigger (guarantee violation, reconcile repair) fired, oldest first.
type Capture struct {
	Seq    uint64        // sequence number of the triggering event
	At     time.Duration // virtual time of the trigger
	Reason string
	Events []Event
}

// Tracer is the bounded event store for the agent's flow-mod lifecycle and
// the intent reconciler's steps, one tracer per agent or controller.
// Record appends into a preallocated ring under a mutex — zero
// allocations, a handful of stores — so it stays on the agent's hot path.
// CaptureNow copies the ring into a Capture (allocating) and is meant for
// rare trigger events only.
//
// The zero Tracer is unusable; construct with NewTracer. A nil *Tracer is
// safe to call: every method no-ops, which is how uninstrumented agents
// skip tracing without branching at every call site.
type Tracer struct {
	mu          sync.Mutex
	ring        []Event
	next        uint64 // total events ever recorded; ring index = next % len
	captures    []Capture
	maxCaptures int
	dropped     uint64 // captures discarded because the list was full
}

// NewTracer returns a tracer whose flight recorder keeps the last n events
// (minimum 16) and at most maxCaptures trigger snapshots (minimum 4).
func NewTracer(n, maxCaptures int) *Tracer {
	if n < 16 {
		n = 16
	}
	if maxCaptures < 4 {
		maxCaptures = 4
	}
	return &Tracer{ring: make([]Event, n), maxCaptures: maxCaptures}
}

// Record appends one lifecycle event. Zero allocations; safe for
// concurrent use; no-op on a nil tracer.
//
//hermes:hotpath
func (t *Tracer) Record(at time.Duration, kind EventKind, step uint8, rule, a, b uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.ring[t.next%uint64(len(t.ring))] = Event{
		Seq: t.next, At: at, Kind: kind, Step: step, Rule: rule, A: a, B: b,
	}
	t.mu.Unlock()
}

// Len returns the total number of events recorded so far.
func (t *Tracer) Len() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// snapshotLocked copies the live window of the ring, oldest first.
func (t *Tracer) snapshotLocked() []Event {
	n := t.next
	window := uint64(len(t.ring))
	if n < window {
		window = n
	}
	out := make([]Event, 0, window)
	for s := n - window + 1; s <= n; s++ {
		out = append(out, t.ring[s%uint64(len(t.ring))])
	}
	return out
}

// Events returns the current flight-recorder window, oldest first.
// Allocates; inspection-path only. Nil tracers return nil.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

// Digest folds every field of every event in the window, oldest first,
// through FNV-1a, so two tracers recorded the same sequence exactly when
// their digests match — the replay check of a seeded run. Once the ring
// has wrapped the window no longer holds the whole run, so Digest returns
// ok=false rather than a digest of its tail; a nil tracer has nothing to
// digest and returns ok=false too.
func (t *Tracer) Digest() (sum uint64, ok bool) {
	if t == nil {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next > uint64(len(t.ring)) {
		return 0, false
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= prime
		}
	}
	for s := uint64(1); s <= t.next; s++ {
		e := &t.ring[s%uint64(len(t.ring))]
		word(e.Seq)
		word(uint64(e.At))
		word(uint64(e.Kind))
		word(uint64(e.Step))
		word(e.Rule)
		word(e.A)
		word(e.B)
	}
	return h, true
}

// CaptureNow snapshots the flight recorder because reason fired at virtual
// time at. The snapshot is retained (up to the capture cap; beyond it the
// oldest retained captures stay and new ones are counted as dropped, so
// the first violations of a run — usually the interesting ones — survive).
func (t *Tracer) CaptureNow(at time.Duration, reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.captures) >= t.maxCaptures {
		t.dropped++
		return
	}
	t.captures = append(t.captures, Capture{
		Seq:    t.next,
		At:     at,
		Reason: reason,
		Events: t.snapshotLocked(),
	})
}

// Captures returns the retained trigger snapshots (oldest first) and the
// number of triggers dropped after the retention cap filled.
func (t *Tracer) Captures() (caps []Capture, dropped uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	caps = make([]Capture, len(t.captures))
	copy(caps, t.captures)
	return caps, t.dropped
}
