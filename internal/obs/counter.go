package obs

import (
	"sync/atomic"
	"unsafe"
)

// shard is one cache line of counter state. The pad keeps neighbouring
// shards on distinct cache lines so concurrent writers don't false-share.
type shard struct {
	v atomic.Uint64
	_ [56]byte
}

const numShards = 8

// shardHint derives a stable per-goroutine shard index without runtime
// support: the address of a live local variable sits on the calling
// goroutine's stack, and distinct goroutines have distinct stacks. The
// low bits below the cache-line size are discarded.
//
//go:nosplit
//hermes:hotpath
func shardHint(p unsafe.Pointer) int {
	return int(uintptr(p)>>6) & (numShards - 1)
}

// Counter is a monotonically increasing, lock-free sharded counter.
// Add/Inc never allocate and scale across cores; Value folds the shards.
type Counter struct {
	shards [numShards]shard
}

// Inc adds one to the counter.
//
//hermes:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta to the counter. Deltas are expected to be non-negative;
// the counter is monotone by contract, not by enforcement.
//
//hermes:hotpath
func (c *Counter) Add(delta uint64) {
	var anchor byte
	c.shards[shardHint(unsafe.Pointer(&anchor))].v.Add(delta)
}

// Value returns the current total across all shards. Concurrent Adds may
// or may not be included; the result is always a sum of committed deltas.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is a lock-free instantaneous value (occupancy, queue depth,
// breaker state). Unlike Counter it is last-write-wins, so it is a single
// atomic rather than sharded.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
//
//hermes:hotpath
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (use negative deltas to decrement).
//
//hermes:hotpath
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
