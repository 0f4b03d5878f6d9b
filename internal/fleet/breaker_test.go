package fleet

import (
	"sync"
	"testing"
	"time"
)

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
