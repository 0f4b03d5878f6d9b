package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BreakerConfig tunes the per-switch circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive connection-level
	// failures (flow-mods or health probes) that opens the circuit.
	// Defaults to 3.
	FailureThreshold int
	// OpenTimeout is how long the circuit stays open before a health
	// probe may test the switch again (half-open). Defaults to 500ms.
	OpenTimeout time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 500 * time.Millisecond
	}
	return c
}

// BreakerState is the circuit state of one switch.
type BreakerState int

// Circuit states.
const (
	// BreakerClosed: the switch is healthy, requests flow.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the switch is considered dead; requests fail fast.
	BreakerOpen
	// BreakerHalfOpen: the open timeout elapsed; a probe is testing the
	// switch while requests still fail fast.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// CircuitOpenError is the fail-fast error returned for operations on a
// switch whose circuit is open.
type CircuitOpenError struct {
	Switch string
}

func (e *CircuitOpenError) Error() string {
	return fmt.Sprintf("fleet: circuit open for switch %s", e.Switch)
}

// breaker is a classic closed → open → half-open circuit breaker. A dead
// or wedged agent trips it after FailureThreshold consecutive failures;
// from then on its worker fails operations immediately instead of
// stalling the fleet, until a health probe succeeds again.
type breaker struct {
	cfg BreakerConfig

	// state is read without mu on every op (allow); it changes only under
	// mu, together with the fields below.
	state atomic.Int32

	mu       sync.Mutex
	fails    int
	openedAt time.Time
	trips    uint64
}

func newBreaker(cfg BreakerConfig) *breaker {
	return &breaker{cfg: cfg.withDefaults()}
}

// allow reports whether a regular operation may proceed.
func (b *breaker) allow() bool {
	return BreakerState(b.state.Load()) == BreakerClosed
}

func (b *breaker) set(s BreakerState) { b.state.Store(int32(s)) }

// allowProbe reports whether a health probe should run: always while
// closed, and once the open timeout has elapsed (transitioning to
// half-open) otherwise.
func (b *breaker) allowProbe(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch BreakerState(b.state.Load()) {
	case BreakerClosed, BreakerHalfOpen:
		return true
	default: // BreakerOpen
		if now.Sub(b.openedAt) >= b.cfg.OpenTimeout {
			b.set(BreakerHalfOpen)
			return true
		}
		return false
	}
}

// success records a healthy round trip and closes the circuit.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.set(BreakerClosed)
}

// failure records a connection-level failure, opening the circuit at the
// threshold (and immediately re-opening from half-open).
func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	st := BreakerState(b.state.Load())
	if st == BreakerHalfOpen || b.fails >= b.cfg.FailureThreshold {
		if st != BreakerOpen {
			b.trips++
		}
		b.set(BreakerOpen)
		b.openedAt = now
	}
}

// snapshot returns the current state and total trip count.
func (b *breaker) snapshot() (BreakerState, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerState(b.state.Load()), b.trips
}
