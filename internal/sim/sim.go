// Package sim implements the discrete-event engine that drives the Varys
// flow-level network simulator and the Hermes control-plane experiments.
//
// Time is virtual: a time.Duration offset from the start of the simulation.
// Events are executed in timestamp order; ties are broken by scheduling
// order, which makes runs fully deterministic.
package sim

import (
	"container/heap"
	"time"
)

// Event is a callback scheduled at a virtual time.
type Event func(now time.Duration)

type item struct {
	at  time.Duration
	seq uint64
	fn  Event
}

type eventHeap []*item

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*item)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use.
type Engine struct {
	queue eventHeap
	now   time.Duration
	seq   uint64
	halt  bool
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn at virtual time at. Scheduling in the past (at < Now) is
// clamped to Now, preserving causality.
func (e *Engine) Schedule(at time.Duration, fn Event) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.queue, &item{at: at, seq: e.seq, fn: fn})
}

// After schedules fn delay after the current time.
func (e *Engine) After(delay time.Duration, fn Event) {
	e.Schedule(e.now+delay, fn)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.halt = true }

// Run executes events until the queue empties or the clock passes until.
// Pass a non-positive until to run to quiescence. It returns the final
// virtual time.
func (e *Engine) Run(until time.Duration) time.Duration {
	e.halt = false
	for len(e.queue) > 0 && !e.halt {
		next := e.queue[0]
		if until > 0 && next.at > until {
			e.now = until
			return e.now
		}
		heap.Pop(&e.queue)
		e.now = next.at
		next.fn(e.now)
	}
	return e.now
}

// NextAt reports the due time of the earliest queued event.
func (e *Engine) NextAt() (time.Duration, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// AdvanceTo fires every event due at or before t in (time, seq) order,
// including events the sweep itself schedules, and then leaves the clock
// on t. Time never moves backward: a t before Now fires nothing. Unlike
// Run, a zero t is an instant, not "run to quiescence", and Stop does not
// cut the sweep short.
func (e *Engine) AdvanceTo(t time.Duration) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		next := heap.Pop(&e.queue).(*item)
		e.now = next.at
		next.fn(e.now)
	}
	if t > e.now {
		e.now = t
	}
}

// Step executes exactly one event if any is queued, returning true when an
// event ran.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	next := heap.Pop(&e.queue).(*item)
	e.now = next.at
	next.fn(e.now)
	return true
}
