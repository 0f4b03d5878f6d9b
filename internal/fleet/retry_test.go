package fleet

import (
	"sync"
	"testing"
	"time"
)

// TestBackoffDeterministic: the same seed replays the identical jittered
// schedule; a different seed diverges.
func TestBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, Multiplier: 2, Jitter: 0.5}
	schedule := func(seed int64) []time.Duration {
		bo := p.newBackoff(seed)
		var ds []time.Duration
		for {
			d, ok := bo.next()
			if !ok {
				break
			}
			ds = append(ds, d)
		}
		return ds
	}
	a, b := schedule(42), schedule(42)
	if len(a) != p.MaxAttempts-1 {
		t.Fatalf("schedule length = %d, want %d", len(a), p.MaxAttempts-1)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical jitter")
	}
}

// TestBackoffGrowthAndCap: delays grow roughly exponentially and respect
// MaxDelay even with jitter.
func TestBackoffGrowthAndCap(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond,
		MaxDelay: 8 * time.Millisecond, Multiplier: 2, Jitter: 0.2}
	bo := p.newBackoff(1)
	var prev time.Duration
	for i := 0; ; i++ {
		d, ok := bo.next()
		if !ok {
			break
		}
		// Jitter scales by at most 1+J/2 = 1.1.
		if max := time.Duration(float64(p.MaxDelay) * 1.1); d > max {
			t.Fatalf("attempt %d: delay %v above cap %v", i, d, max)
		}
		if i > 0 && i < 3 && d < prev {
			t.Fatalf("attempt %d: delay %v shrank below %v before the cap", i, d, prev)
		}
		prev = d
	}
}

// TestBackoffNoJitter: zero-jitter schedules are exactly the exponential.
func TestBackoffNoJitter(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond,
		MaxDelay: time.Second, Multiplier: 2, Jitter: -1} // invalid → default
	p = p.withDefaults()
	if p.Jitter != 0.2 {
		t.Fatalf("invalid jitter not defaulted: %v", p.Jitter)
	}
	p.Jitter = 0
	bo := p.newBackoff(9)
	want := []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond}
	for i, w := range want {
		d, ok := bo.next()
		if !ok || d != w {
			t.Fatalf("attempt %d: got %v,%v want %v", i, d, ok, w)
		}
	}
	if _, ok := bo.next(); ok {
		t.Error("backoff exceeded MaxAttempts")
	}
}

// TestBackoffTableDeterminism: across a table of policies and seeds, the
// schedule is a pure function of (policy, seed) — identical on replay,
// the documented length, never above the jitter-adjusted cap, and never
// below the jitter-adjusted floor of the uncapped exponential.
func TestBackoffTableDeterminism(t *testing.T) {
	cases := []struct {
		name string
		p    RetryPolicy
		seed int64
	}{
		{"defaults", RetryPolicy{}, 1},
		{"zero-jitter", RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond,
			MaxDelay: time.Second, Multiplier: 3, Jitter: 0}, 7},
		{"full-jitter", RetryPolicy{MaxAttempts: 8, BaseDelay: 2 * time.Millisecond,
			MaxDelay: 100 * time.Millisecond, Multiplier: 2, Jitter: 1}, 42},
		{"tight-cap", RetryPolicy{MaxAttempts: 12, BaseDelay: 10 * time.Millisecond,
			MaxDelay: 15 * time.Millisecond, Multiplier: 4, Jitter: 0.2}, -9},
		{"no-growth", RetryPolicy{MaxAttempts: 6, BaseDelay: 5 * time.Millisecond,
			MaxDelay: time.Second, Multiplier: 1, Jitter: 0.5}, 1 << 40},
		{"single-attempt", RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond}, 3},
	}
	schedule := func(p RetryPolicy, seed int64) []time.Duration {
		bo := p.newBackoff(seed)
		var ds []time.Duration
		for {
			d, ok := bo.next()
			if !ok {
				return ds
			}
			ds = append(ds, d)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := schedule(tc.p, tc.seed), schedule(tc.p, tc.seed)
			p := tc.p.withDefaults()
			if want := p.MaxAttempts - 1; len(a) != want {
				t.Fatalf("schedule length = %d, want %d", len(a), want)
			}
			ceil := time.Duration(float64(p.MaxDelay) * (1 + p.Jitter/2))
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
				}
				if a[i] > ceil {
					t.Fatalf("attempt %d: %v above jittered cap %v", i, a[i], ceil)
				}
				exp := float64(p.BaseDelay)
				for j := 0; j < i; j++ {
					exp *= p.Multiplier
				}
				if max := float64(p.MaxDelay); exp > max {
					exp = max
				}
				if floor := time.Duration(exp * (1 - p.Jitter/2)); a[i] < floor {
					t.Fatalf("attempt %d: %v below jittered floor %v", i, a[i], floor)
				}
			}
		})
	}
}

// TestBackoffAllocatesNothing: an op's retry schedule is a value and its
// jitter a pure hash, so walking a whole schedule allocates nothing — the
// per-op path pays nothing for retries it does not take.
func TestBackoffAllocatesNothing(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, Jitter: 0.5}
	seed := int64(1)
	allocs := testing.AllocsPerRun(200, func() {
		bo := p.newBackoff(seed)
		for {
			if _, ok := bo.next(); !ok {
				break
			}
		}
		seed++
	})
	if allocs != 0 {
		t.Fatalf("a retry schedule allocates %v times, want 0", allocs)
	}
}

// TestBreakerConcurrentHalfOpenProbe: run with -race. Concurrent allow
// callers hammer the breaker while one goroutine walks it through
// failure → open → half-open probe → success; the breaker must stay
// data-race-free and end closed with exactly one trip recorded.
func TestBreakerConcurrentHalfOpenProbe(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 2, OpenTimeout: 10 * time.Millisecond})
	now := time.Unix(2000, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Mixed readers and failure writers racing the lifecycle
				// walker below.
				b.allow()
				b.snapshot()
				if g%4 == 0 {
					b.failure(now)
				}
			}
		}(g)
	}

	// Lifecycle under fire: force open, wait out the open timeout in
	// virtual time, probe, close.
	b.failure(now)
	b.failure(now)
	if st, _ := b.snapshot(); st != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", st)
	}
	if b.allow() {
		t.Fatal("ops allowed while open")
	}
	// The concurrent failure writers keep re-opening from half-open, so
	// retry the probe transition until the walker wins the race; with the
	// writers stopped it must succeed deterministically.
	close(stop)
	wg.Wait()
	if !b.allowProbe(now.Add(20 * time.Millisecond)) {
		t.Fatal("probe refused after open timeout")
	}
	if st, _ := b.snapshot(); st != BreakerHalfOpen {
		t.Fatalf("state after probe window = %v, want half-open", st)
	}
	if b.allow() {
		t.Fatal("ops allowed while half-open")
	}
	b.success()
	if !b.allow() {
		t.Fatal("breaker not closed after probe success")
	}
	if st, trips := b.snapshot(); st != BreakerClosed || trips == 0 {
		t.Fatalf("final state=%v trips=%d, want closed with recorded trips", st, trips)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 3, OpenTimeout: 50 * time.Millisecond})
	now := time.Unix(1000, 0)
	if !b.allow() {
		t.Fatal("new breaker not closed")
	}
	b.failure(now)
	b.failure(now)
	if !b.allow() {
		t.Fatal("breaker opened below threshold")
	}
	b.failure(now)
	if b.allow() {
		t.Fatal("breaker closed at threshold")
	}
	if st, trips := b.snapshot(); st != BreakerOpen || trips != 1 {
		t.Fatalf("state=%v trips=%d", st, trips)
	}
	// Probes are refused until the open timeout elapses.
	if b.allowProbe(now.Add(10 * time.Millisecond)) {
		t.Fatal("probe allowed while open")
	}
	if !b.allowProbe(now.Add(60 * time.Millisecond)) {
		t.Fatal("probe refused after open timeout")
	}
	if st, _ := b.snapshot(); st != BreakerHalfOpen {
		t.Fatalf("state after probe window = %v", st)
	}
	if b.allow() {
		t.Fatal("ops allowed while half-open")
	}
	// A failed probe re-opens immediately (single strike).
	b.failure(now.Add(61 * time.Millisecond))
	if st, trips := b.snapshot(); st != BreakerOpen || trips != 2 {
		t.Fatalf("after half-open failure: state=%v trips=%d", st, trips)
	}
	// A successful probe closes the circuit.
	if !b.allowProbe(now.Add(200 * time.Millisecond)) {
		t.Fatal("second probe refused")
	}
	b.success()
	if !b.allow() {
		t.Fatal("breaker not closed after probe success")
	}
}

func TestBreakerStateString(t *testing.T) {
	for _, s := range []BreakerState{BreakerClosed, BreakerOpen, BreakerHalfOpen, BreakerState(9)} {
		if s.String() == "" {
			t.Errorf("empty string for state %d", int(s))
		}
	}
	e := &CircuitOpenError{Switch: "tor-3"}
	if e.Error() == "" {
		t.Error("empty circuit-open error")
	}
}
