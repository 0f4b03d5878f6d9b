package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(3*time.Millisecond, func(time.Duration) { order = append(order, 3) })
	e.Schedule(1*time.Millisecond, func(time.Duration) { order = append(order, 1) })
	e.Schedule(2*time.Millisecond, func(time.Duration) { order = append(order, 2) })
	end := e.Run(0)
	if end != 3*time.Millisecond {
		t.Errorf("end = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func(time.Duration) { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	e := New()
	var at time.Duration
	e.Schedule(5*time.Millisecond, func(now time.Duration) {
		e.Schedule(time.Millisecond, func(now2 time.Duration) { at = now2 })
	})
	e.Run(0)
	if at != 5*time.Millisecond {
		t.Errorf("past event ran at %v, want clamp to 5ms", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	ran := 0
	e.Schedule(time.Millisecond, func(time.Duration) { ran++ })
	e.Schedule(10*time.Millisecond, func(time.Duration) { ran++ })
	end := e.Run(5 * time.Millisecond)
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if end != 5*time.Millisecond {
		t.Errorf("end = %v, want 5ms", end)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d", e.Pending())
	}
	// Resume runs the rest.
	e.Run(0)
	if ran != 2 {
		t.Errorf("ran after resume = %d", ran)
	}
}

func TestAfterAndCascade(t *testing.T) {
	e := New()
	var times []time.Duration
	e.After(time.Millisecond, func(now time.Duration) {
		times = append(times, now)
		e.After(2*time.Millisecond, func(now2 time.Duration) {
			times = append(times, now2)
		})
	})
	e.Run(0)
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 3*time.Millisecond {
		t.Errorf("times = %v", times)
	}
}

func TestStop(t *testing.T) {
	e := New()
	ran := 0
	e.Schedule(time.Millisecond, func(time.Duration) { ran++; e.Stop() })
	e.Schedule(2*time.Millisecond, func(time.Duration) { ran++ })
	e.Run(0)
	if ran != 1 {
		t.Errorf("ran = %d after Stop, want 1", ran)
	}
}

func TestStep(t *testing.T) {
	e := New()
	ran := 0
	e.Schedule(time.Millisecond, func(time.Duration) { ran++ })
	if !e.Step() || ran != 1 {
		t.Error("Step must run the event")
	}
	if e.Step() {
		t.Error("Step on empty queue must return false")
	}
}

// TestAdvanceTo: events fire in (due-time, schedule-order) sequence, an
// event scheduled during the sweep and due by its target fires in that
// sweep, the clock lands on the target even with the queue drained, and
// NextAt tracks the queue head.
func TestAdvanceTo(t *testing.T) {
	e := New()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on an empty queue reports an event")
	}
	var fired []string
	e.After(30*time.Millisecond, func(time.Duration) { fired = append(fired, "c") })
	e.After(10*time.Millisecond, func(time.Duration) {
		fired = append(fired, "a")
		// Nested: due before the sweep target, must fire in this sweep.
		e.After(5*time.Millisecond, func(time.Duration) { fired = append(fired, "a2") })
	})
	e.After(10*time.Millisecond, func(time.Duration) { fired = append(fired, "b") }) // same instant, later seq
	if at, ok := e.NextAt(); !ok || at != 10*time.Millisecond {
		t.Fatalf("NextAt = %v,%v, want 10ms,true", at, ok)
	}
	e.AdvanceTo(20 * time.Millisecond)
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("Now = %v after AdvanceTo(20ms)", e.Now())
	}
	if at, ok := e.NextAt(); !ok || at != 30*time.Millisecond {
		t.Fatalf("NextAt = %v,%v after the sweep, want 30ms,true", at, ok)
	}
	e.AdvanceTo(40 * time.Millisecond)
	if e.Now() != 40*time.Millisecond || e.Pending() != 0 {
		t.Fatalf("Now = %v, pending %d after draining AdvanceTo(40ms)", e.Now(), e.Pending())
	}
	want := []string{"a", "b", "a2", "c"}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	e.AdvanceTo(35 * time.Millisecond)
	if e.Now() != 40*time.Millisecond {
		t.Fatalf("AdvanceTo(35ms) moved the clock back to %v", e.Now())
	}
}
