package intent

import (
	"sync"
	"time"
)

// RateLimit shapes the per-key requeue backoff: exponential growth from
// Base to Max with hash-derived jitter, so a key that keeps failing backs
// off harder while the schedule stays a pure function of (seed, key,
// attempt) — no RNG state, identical on replay regardless of goroutine
// interleaving.
type RateLimit struct {
	// Base is the first requeue delay. Defaults to 5ms.
	Base time.Duration
	// Max caps the backoff growth. Defaults to 1s.
	Max time.Duration
	// Multiplier is the exponential growth factor. Defaults to 2.
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized, in [0, 1]:
	// the delay is scaled by 1 - Jitter/2 + Jitter*frac where frac is
	// hash-derived. Defaults to 0.2.
	Jitter float64
}

func (r RateLimit) withDefaults() RateLimit {
	if r.Base <= 0 {
		r.Base = 5 * time.Millisecond
	}
	if r.Max <= 0 {
		r.Max = time.Second
	}
	if r.Multiplier < 1 {
		r.Multiplier = 2
	}
	if r.Jitter < 0 || r.Jitter > 1 {
		r.Jitter = 0.2
	}
	return r
}

// delayFor computes the backoff before attempt n (1-based) of key: Base
// grown by Multiplier per attempt and clamped at Max, then scaled by the
// jitter of jitterFrac. A pure function of (seed, key, attempt), so
// concurrent queues with the same seed replay the same schedule.
func (r RateLimit) delayFor(seed int64, key string, attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := float64(r.Base)
	for i := 1; i < attempt && d < float64(r.Max); i++ {
		d *= r.Multiplier
	}
	if max := float64(r.Max); d > max {
		d = max
	}
	if j := r.Jitter; j > 0 {
		d *= 1 - j/2 + j*jitterFrac(uint64(seed)^fnv64a(key), attempt)
	}
	return time.Duration(d)
}

// jitterFrac is the stateless backoff jitter: a fraction in [0, 1), in
// steps of 1/1024, that is a pure function of (seed, attempt), where seed
// is already folded with the key. No RNG state means nothing to allocate
// or seed per key, and the same schedule on replay regardless of goroutine
// interleaving.
func jitterFrac(seed uint64, attempt int) float64 {
	return float64(mix64(seed^uint64(attempt))%1024) / 1024
}

// Queue is a keyed, deduplicating work queue with rate-limited requeues —
// the level-triggered scheduling core of the reconciler. Any number of
// Add calls for a key collapse into at most one pending item; adding a
// key that is currently being processed defers it until Done, so a
// reconcile never races itself on the same switch. Delayed re-adds go
// through the injected timer seam, which is what lets a virtual-time
// harness drive the same queue code the production controller runs.
type Queue struct {
	limit RateLimit
	seed  int64
	after func(time.Duration, func())

	mu         sync.Mutex
	ready      []string // FIFO of keys awaiting Get
	dirty      map[string]bool
	processing map[string]bool
	requeues   map[string]int
	adds       uint64
	requeued   uint64

	signal chan struct{} // capacity 1: "ready may be non-empty"
}

// newQueue builds a queue over the timer seam. after must eventually run
// its callback once the delay elapses (time.AfterFunc semantics).
func newQueue(limit RateLimit, seed int64, after func(time.Duration, func())) *Queue {
	return &Queue{
		limit:      limit.withDefaults(),
		seed:       seed,
		after:      after,
		dirty:      make(map[string]bool),
		processing: make(map[string]bool),
		requeues:   make(map[string]int),
		signal:     make(chan struct{}, 1),
	}
}

// Add marks the key pending. Duplicate adds coalesce; an add while the
// key is processing re-queues it when Done runs.
func (q *Queue) Add(key string) {
	q.mu.Lock()
	q.adds++
	if q.dirty[key] {
		q.mu.Unlock()
		return
	}
	q.dirty[key] = true
	if q.processing[key] {
		q.mu.Unlock()
		return
	}
	q.ready = append(q.ready, key)
	q.mu.Unlock()
	q.poke()
}

// AddAfter marks the key pending once d elapses.
func (q *Queue) AddAfter(key string, d time.Duration) {
	if d <= 0 {
		q.Add(key)
		return
	}
	q.after(d, func() { q.Add(key) })
}

// AddRateLimited requeues the key after its next backoff delay,
// incrementing the per-key attempt count, and returns the chosen delay.
func (q *Queue) AddRateLimited(key string) time.Duration {
	q.mu.Lock()
	q.requeues[key]++
	n := q.requeues[key]
	q.requeued++
	q.mu.Unlock()
	d := q.limit.delayFor(q.seed, key, n)
	q.AddAfter(key, d)
	return d
}

// Forget resets the key's backoff — called after a successful reconcile
// so the next failure starts the schedule over.
func (q *Queue) Forget(key string) {
	q.mu.Lock()
	delete(q.requeues, key)
	q.mu.Unlock()
}

// Requeues returns the key's current consecutive-failure count.
func (q *Queue) Requeues(key string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.requeues[key]
}

// TryGet pops the oldest pending key, marking it processing. It never
// blocks; ok is false when nothing is pending.
func (q *Queue) TryGet() (key string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ready) == 0 {
		return "", false
	}
	key = q.ready[0]
	q.ready = q.ready[1:]
	delete(q.dirty, key)
	q.processing[key] = true
	return key, true
}

// Done releases a key TryGet handed out. If the key was re-added while
// processing, it goes back on the ready list.
func (q *Queue) Done(key string) {
	q.mu.Lock()
	delete(q.processing, key)
	requeue := q.dirty[key]
	if requeue {
		q.ready = append(q.ready, key)
	}
	q.mu.Unlock()
	if requeue {
		q.poke()
	}
}

// Len returns the number of keys awaiting TryGet.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ready)
}

// Stats returns the lifetime add and rate-limited-requeue counts.
func (q *Queue) Stats() (adds, requeued uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.adds, q.requeued
}

// Signal returns a channel that receives after Adds that may have made
// the queue non-empty — the wake-up a goroutine-mode worker blocks on.
func (q *Queue) Signal() <-chan struct{} { return q.signal }

// poke wakes one Signal waiter without blocking.
func (q *Queue) poke() {
	select {
	case q.signal <- struct{}{}:
	default:
	}
}
