package fleet

import (
	"time"

	"hermes/internal/intent"
)

// RetryPolicy shapes the exponential backoff applied to insertions the
// Gate Keeper diverts off the guaranteed path (rate-limited or
// shadow-full, §5.2). The diverted rule sits in the main table; a retry
// deletes it and re-inserts after the backoff, giving the token bucket
// time to refill or the Rule Manager time to drain the shadow table.
type RetryPolicy struct {
	// MaxAttempts bounds total insert attempts (first try included).
	// 1 disables retries. Defaults to 4.
	MaxAttempts int
	// BaseDelay is the first backoff. Defaults to 5ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth. Defaults to 250ms.
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor. Defaults to 2.
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized, in [0, 1]:
	// the sleep is delay * (1 - Jitter/2 + Jitter*U[0,1)). Defaults to 0.2.
	Jitter float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = 0.2
	}
	return p
}

// backoff walks one op's retry schedule: intent.RateLimit's Delay under a
// seed fixed per op (fleet seed ⊕ switch ⊕ rule), so a given workload
// replays the exact same schedule run after run, and a schedule is a plain
// value: walking one allocates nothing.
type backoff struct {
	sched       intent.RateLimit
	maxAttempts int
	seed        uint64
	attempt     int // completed attempts
}

func (p RetryPolicy) newBackoff(seed int64) backoff {
	p = p.withDefaults()
	return backoff{
		sched: intent.RateLimit{Base: p.BaseDelay, Max: p.MaxDelay,
			Multiplier: p.Multiplier, Jitter: p.Jitter},
		maxAttempts: p.MaxAttempts,
		seed:        uint64(seed),
	}
}

// next returns the delay to wait before the following attempt, or ok=false
// when the attempt budget is spent.
func (b *backoff) next() (time.Duration, bool) {
	b.attempt++
	if b.attempt >= b.maxAttempts {
		return 0, false
	}
	return b.sched.Delay(b.seed, b.attempt), true
}

// fnv64a hashes s with FNV-1a; used for deterministic per-switch seeds and
// for consistent rule→switch routing.
func fnv64a[T string | []byte](s T) uint64 {
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
