package tcam

import (
	"fmt"
	"time"

	"hermes/internal/classifier"
)

// Switch models one SDN switch: a TCAM carved into one or more slices plus
// a serial control-plane processor. Control-plane actions (flow-mods) queue
// at the switch agent and are serviced one at a time, so a burst of updates
// experiences queueing delay on top of per-operation hardware latency —
// exactly the effect that inflates rule installation time in the paper's
// measurements.
type Switch struct {
	name    string
	profile *Profile
	slices  []*Table
	// busyUntil is the virtual time at which the control-plane processor
	// frees up for best-effort work; guaranteedUntil tracks the
	// high-priority lane used by Hermes's guaranteed operations, which
	// best-effort work must also yield to.
	busyUntil       time.Duration
	guaranteedUntil time.Duration
}

// NewSwitch creates a switch with a single monolithic table of the
// profile's full capacity.
func NewSwitch(name string, profile *Profile) *Switch {
	return &Switch{
		name:    name,
		profile: profile,
		slices:  []*Table{NewTable(name+"/table0", profile.Capacity, profile)},
	}
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

// Profile returns the switch's performance profile.
func (s *Switch) Profile() *Profile { return s.profile }

// Slices returns the lookup-ordered TCAM slices. Callers must not mutate
// the returned slice header; the tables themselves are the live objects.
func (s *Switch) Slices() []*Table { return s.slices }

// Table returns the single table of an un-carved switch. It panics if the
// switch has been carved, which indicates the caller should use Shadow/Main.
func (s *Switch) Table() *Table {
	if len(s.slices) != 1 {
		panic(fmt.Sprintf("tcam: switch %s is carved into %d slices", s.name, len(s.slices)))
	}
	return s.slices[0]
}

// Carve splits the switch's TCAM into a shadow slice of shadowSize entries
// and a main slice holding the remaining capacity, mirroring the TCAM
// carving/slicing facilities of commodity ASICs (§6). Both slices share the
// profile; lookups consult the shadow slice first (its table-miss behaviour
// is "goto next table"). Carving discards installed entries, as
// reconfiguring slice layouts does on real hardware, so it is done at
// configuration time.
func (s *Switch) Carve(shadowSize int) (shadow, main *Table, err error) {
	if shadowSize <= 0 || shadowSize >= s.profile.Capacity {
		return nil, nil, fmt.Errorf("tcam: shadow size %d out of range (capacity %d)",
			shadowSize, s.profile.Capacity)
	}
	shadow = NewTable(s.name+"/shadow", shadowSize, s.profile)
	main = NewTable(s.name+"/main", s.profile.Capacity-shadowSize, s.profile)
	s.slices = []*Table{shadow, main}
	return shadow, main, nil
}

// Uncarve restores a single monolithic table, discarding entries.
func (s *Switch) Uncarve() *Table {
	t := NewTable(s.name+"/table0", s.profile.Capacity, s.profile)
	s.slices = []*Table{t}
	return t
}

// Lookup performs the pipeline lookup: slices are consulted in order and
// the first slice with a matching rule processes the packet (§3: shadow
// first, main on shadow miss).
//
//hermes:hotpath
func (s *Switch) Lookup(dst, src uint32) (classifier.Rule, bool) {
	for _, t := range s.slices {
		if r, ok := t.Lookup(dst, src); ok {
			return r, true
		}
	}
	return classifier.Rule{}, false
}

// Submit models the serial control-plane processor: a best-effort
// operation of the given hardware cost arriving at time now starts when
// the processor is free (yielding to any queued guaranteed work) and
// completes cost later. It returns the completion time and advances the
// processor clock.
func (s *Switch) Submit(now, cost time.Duration) (completion time.Duration) {
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	if s.guaranteedUntil > start {
		start = s.guaranteedUntil
	}
	completion = start + cost
	s.busyUntil = completion
	return completion
}

// SubmitGuaranteed schedules an operation on the high-priority lane that
// Hermes's Gate Keeper uses for guaranteed shadow-table actions: it queues
// only behind other guaranteed operations, never behind best-effort
// main-table work. TCAM update primitives are microsecond-granular at the
// SDK level, so the agent can interleave its guaranteed writes ahead of
// queued best-effort ones (§6).
func (s *Switch) SubmitGuaranteed(now, cost time.Duration) (completion time.Duration) {
	start := now
	if s.guaranteedUntil > start {
		start = s.guaranteedUntil
	}
	completion = start + cost
	s.guaranteedUntil = completion
	return completion
}

// BusyUntil reports when the best-effort lane frees up.
func (s *Switch) BusyUntil() time.Duration { return s.busyUntil }

// ResetClock clears the control-plane queue state (for reusing a switch
// across experiment repetitions).
func (s *Switch) ResetClock() {
	s.busyUntil = 0
	s.guaranteedUntil = 0
}

// CrashRestart models a switch power-cycle: every slice loses its entries
// (the slice layout itself is preserved — carving is a boot-time config)
// and the control-plane queues empty. The agent's desired state survives
// in software; core.(*Agent).Reconcile re-installs it.
func (s *Switch) CrashRestart() {
	for _, t := range s.slices {
		t.Wipe()
	}
	s.busyUntil = 0
	s.guaranteedUntil = 0
}
