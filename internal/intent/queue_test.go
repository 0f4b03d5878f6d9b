package intent

import (
	"math"
	"testing"
	"time"

	"hermes/internal/sim"
)

// TestQueueDedupAndProcessing: duplicate adds collapse; an add during
// processing defers exactly one re-queue to Done.
func TestQueueDedupAndProcessing(t *testing.T) {
	clk := sim.New()
	q := newQueue(RateLimit{}, 1, engineAfter(clk))

	q.Add("a")
	q.Add("a")
	q.Add("b")
	q.Add("a")
	if q.Len() != 2 {
		t.Fatalf("queue depth %d after deduped adds, want 2", q.Len())
	}
	k, ok := q.TryGet()
	if !ok || k != "a" {
		t.Fatalf("TryGet = %q,%v, want a (FIFO)", k, ok)
	}
	// Re-adds while a is processing defer, not duplicate.
	q.Add("a")
	q.Add("a")
	if q.Len() != 1 { // only b
		t.Fatalf("depth %d while a processing, want 1", q.Len())
	}
	q.Done("a")
	if q.Len() != 2 { // b then a again
		t.Fatalf("depth %d after Done with deferred add, want 2", q.Len())
	}
	if k, _ := q.TryGet(); k != "b" {
		t.Fatalf("second TryGet = %q, want b", k)
	}
	q.Done("b")
	if k, _ := q.TryGet(); k != "a" {
		t.Fatalf("third TryGet = %q, want deferred a", k)
	}
	q.Done("a")
	if _, ok := q.TryGet(); ok {
		t.Fatal("queue not empty after all Dones")
	}
	if adds, _ := q.Stats(); adds != 6 {
		t.Fatalf("adds counter = %d, want 6 (pre-dedup)", adds)
	}
}

// TestQueueRateLimitedBackoff: requeues grow the per-key delay
// exponentially up to the cap, delays elapse on the injected clock, and
// Forget resets the schedule.
func TestQueueRateLimitedBackoff(t *testing.T) {
	clk := sim.New()
	lim := RateLimit{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond,
		Multiplier: 2, Jitter: 0}
	q := newQueue(lim, 1, engineAfter(clk))

	want := []time.Duration{10, 20, 40, 80, 80} // ms, capped
	for i, w := range want {
		d := q.AddRateLimited("k")
		if d != w*time.Millisecond {
			t.Fatalf("requeue %d delay = %v, want %v", i+1, d, w*time.Millisecond)
		}
		if _, ok := q.TryGet(); ok {
			t.Fatalf("requeue %d ready before its delay elapsed", i+1)
		}
		clk.AdvanceTo(clk.Now() + d)
		k, ok := q.TryGet()
		if !ok || k != "k" {
			t.Fatalf("requeue %d not ready after delay: %q,%v", i+1, k, ok)
		}
		q.Done("k")
	}
	if n := q.Requeues("k"); n != len(want) {
		t.Fatalf("requeue count = %d, want %d", n, len(want))
	}
	q.Forget("k")
	if d := q.AddRateLimited("k"); d != 10*time.Millisecond {
		t.Fatalf("post-Forget delay = %v, want base", d)
	}
	if _, rq := q.Stats(); rq != uint64(len(want)+1) {
		t.Fatalf("requeued counter = %d, want %d", rq, len(want)+1)
	}
}

// TestRateLimitJitterDeterministic: delayFor is a pure function of
// (seed, key, attempt) — stable across calls, spread across keys, and
// bounded by the jitter window.
func TestRateLimitJitterDeterministic(t *testing.T) {
	lim := RateLimit{Base: 10 * time.Millisecond, Max: time.Second,
		Multiplier: 2, Jitter: 0.5}.withDefaults()
	seen := map[time.Duration]int{}
	for _, key := range []string{"sw-0", "sw-1", "sw-2", "sw-3", "sw-4", "sw-5"} {
		for attempt := 1; attempt <= 4; attempt++ {
			a := lim.delayFor(7, key, attempt)
			if b := lim.delayFor(7, key, attempt); a != b {
				t.Fatalf("delayFor(%q,%d) unstable: %v vs %v", key, attempt, a, b)
			}
			base := float64(10*time.Millisecond) * float64(int(1)<<(attempt-1))
			lo := time.Duration(base * 0.75)
			hi := time.Duration(base * 1.25)
			if a < lo || a > hi {
				t.Fatalf("delayFor(%q,%d) = %v outside [%v,%v]", key, attempt, a, lo, hi)
			}
			seen[a]++
		}
	}
	if len(seen) < 12 {
		t.Fatalf("only %d distinct delays across 24 (key,attempt) pairs; jitter not spreading", len(seen))
	}
	if a, b := lim.delayFor(7, "sw-0", 1), lim.delayFor(8, "sw-0", 1); a == b {
		t.Fatal("different seeds produced identical jitter")
	}
}

// TestRateLimitJitterCap: once growth reaches Max, jitter may scale a delay
// above it but never past Max·(1+Jitter/2), nor below Max·(1-Jitter/2).
// A tight cap and a steep multiplier put most attempts on the cap, and the
// jitter must push some of them over it, so the bound is really exercised.
func TestRateLimitJitterCap(t *testing.T) {
	for _, lim := range []RateLimit{
		{Base: 10 * time.Millisecond, Max: 15 * time.Millisecond, Multiplier: 4, Jitter: 0.2},
		{Base: 2 * time.Millisecond, Max: 100 * time.Millisecond, Multiplier: 2, Jitter: 1},
	} {
		ceil := time.Duration(float64(lim.Max) * (1 + lim.Jitter/2))
		floor := time.Duration(float64(lim.Max) * (1 - lim.Jitter/2))
		over := 0
		for _, key := range []string{"sw-0", "sw-1", "sw-2", "sw-3"} {
			for attempt := 1; attempt <= 12; attempt++ {
				d := lim.delayFor(-9, key, attempt)
				if d > ceil {
					t.Fatalf("%+v: delayFor(%q,%d) = %v above the jittered cap %v", lim, key, attempt, d, ceil)
				}
				capped := float64(lim.Base)*math.Pow(lim.Multiplier, float64(attempt-1)) >= float64(lim.Max)
				if capped && d < floor {
					t.Fatalf("%+v: delayFor(%q,%d) = %v below the jittered floor %v", lim, key, attempt, d, floor)
				}
				if d > lim.Max {
					over++
				}
			}
		}
		if over == 0 {
			t.Fatalf("%+v: no delay jittered above Max; the cap bound went untested", lim)
		}
	}
}

// TestJitterFracSpread: the jitter hash covers [0, 1) evenly enough
// to stand in for an RNG — over 4096 (seed, attempt) pairs it reaches both
// ends of the interval and averages one half.
func TestJitterFracSpread(t *testing.T) {
	lo, hi, sum := 1.0, 0.0, 0.0
	const seeds, attempts = 256, 16
	for s := uint64(0); s < seeds; s++ {
		seed := s * 0x9E3779B97F4A7C15 // spread the seeds over 64 bits
		for a := 1; a <= attempts; a++ {
			f := jitterFrac(seed, a)
			if f < 0 || f >= 1 {
				t.Fatalf("jitterFrac(%#x, %d) = %v outside [0, 1)", seed, a, f)
			}
			lo, hi, sum = min(lo, f), max(hi, f), sum+f
		}
	}
	if mean := sum / (seeds * attempts); lo >= 1.0/64 || hi <= 63.0/64 || mean < 0.48 || mean > 0.52 {
		t.Fatalf("fractions span [%v, %v] with mean %v; want min < 1/64, max > 63/64, mean 0.5 ± 0.02", lo, hi, mean)
	}
}
