// Package tokenbucket implements a virtual-clock token bucket.
//
// Hermes's Gate Keeper uses a token bucket for admission control: the
// controller may not send control-plane actions faster than the rate Hermes
// has agreed to guarantee (paper §3, §5.2). Actions arriving faster than the
// approved rate are diverted to the main table instead of the shadow table.
//
// The bucket is driven by explicit timestamps rather than the wall clock so
// it composes with the discrete-event simulator.
package tokenbucket

import (
	"fmt"
	"time"
)

// Bucket is a token bucket with a fill rate in tokens/second and a burst
// capacity. It is not safe for concurrent use; the simulator is
// single-threaded by design.
type Bucket struct {
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Duration
}

// New returns a bucket that refills at rate tokens/second up to burst
// tokens, starting full. It panics if rate or burst is not positive, since a
// zero-rate guarantee is a configuration error the caller must surface.
func New(rate, burst float64) *Bucket {
	if rate <= 0 || burst <= 0 {
		panic(fmt.Sprintf("tokenbucket: invalid rate=%v burst=%v", rate, burst))
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst}
}

// Rate returns the configured fill rate in tokens/second.
func (b *Bucket) Rate() float64 { return b.rate }

// Allow consumes n tokens if available at virtual time now and reports
// whether the request was admitted.
func (b *Bucket) Allow(now time.Duration, n float64) bool {
	b.refill(now)
	if b.tokens >= n {
		b.tokens -= n
		return true
	}
	return false
}

// Tokens reports the number of tokens available at virtual time now.
func (b *Bucket) Tokens(now time.Duration) float64 {
	b.refill(now)
	return b.tokens
}

func (b *Bucket) refill(now time.Duration) {
	if now <= b.last {
		return
	}
	elapsed := (now - b.last).Seconds()
	b.last = now
	b.tokens += elapsed * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}
