package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket scheme (DESIGN.md §11): log-linear, HDR-style. Each
// power-of-two octave is split into 2^subBits linear sub-buckets, so the
// relative width of any bucket is at most 1/2^subBits ≈ 3.1%. Values below
// 2^subBits land in exact unit-width buckets. With 64-bit values this gives
// a fixed footprint of (65-subBits)*2^subBits = 1920 buckets (~15 KiB) —
// no resizing, no allocation, ever.
const (
	histSubBits    = 5
	histSubBuckets = 1 << histSubBits // 32 linear sub-buckets per octave
	histNumBuckets = (65 - histSubBits) * histSubBuckets
)

// bucketIndex maps a value to its bucket. Values < 32 are exact; above
// that, the bucket is (octave, top-5-bits-below-the-leading-bit).
//
//hermes:hotpath
func bucketIndex(v uint64) int {
	if v < histSubBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - histSubBits          // octave above the exact region
	sub := int(v>>uint(exp)) & (histSubBuckets - 1) // next subBits bits
	return (exp+1)*histSubBuckets + sub
}

// bucketLow returns the smallest value mapping to bucket i;
// bucketHigh the largest.
func bucketLow(i int) uint64 {
	if i < histSubBuckets {
		return uint64(i)
	}
	exp := i/histSubBuckets - 1
	sub := uint64(i % histSubBuckets)
	return (histSubBuckets + sub) << uint(exp)
}

func bucketHigh(i int) uint64 {
	if i < histSubBuckets {
		return uint64(i)
	}
	exp := i/histSubBuckets - 1
	return bucketLow(i) + (uint64(1)<<uint(exp) - 1)
}

// Histogram is a fixed-footprint latency histogram. Record is lock-free,
// wait-free and allocation-free; Quantile/Clone/Merge are read-side
// operations that tolerate concurrent recording (they observe some
// linearization of the concurrent Records, which is all a statistic needs).
//
// Values are recorded in nanoseconds by RecordDuration; Record takes raw
// uint64 units for non-latency uses (e.g. TCAM shift counts per insert).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64 // math.MaxUint64 when empty
	max     atomic.Uint64
	buckets [histNumBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram. The zero value needs its min
// sentinel initialised, so always construct through here.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxUint64)
	return h
}

// Record adds one observation of v. Zero allocations, no locks.
//
//hermes:hotpath
func (h *Histogram) Record(v uint64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordDuration records d in nanoseconds. Negative durations (clock
// anomalies under virtual time never produce them, but wall offsets can)
// clamp to zero rather than corrupting the high octaves.
//
//hermes:hotpath
func (h *Histogram) RecordDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all recorded values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Min returns the smallest recorded value, or 0 when empty.
func (h *Histogram) Min() uint64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest recorded value, or 0 when empty.
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Mean returns the arithmetic mean of recorded values, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]) with
// relative error bounded by the bucket width, ≈3%. Within the located
// bucket the estimate interpolates linearly, and the result is clamped to
// the observed [Min, Max] range (so Quantile(0) == Min and Quantile(1) ==
// Max exactly, even when the extremes share a bucket with other samples).
// Empty histograms return 0.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	minV, maxV := h.min.Load(), h.max.Load()
	if q <= 0 {
		return float64(minV)
	}
	if q >= 1 {
		return float64(maxV)
	}
	// Rank in [1, n]: same convention as stats.Summary's order statistics —
	// q=0 is the minimum, q=1 the maximum.
	rank := q * float64(n-1)
	lo := uint64(rank) + 1 // observations at-or-below the target
	frac := rank - float64(uint64(rank))

	res := float64(maxV)
	var cum uint64
scan:
	for i := 0; i < histNumBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= lo {
			low, high := float64(bucketLow(i)), float64(bucketHigh(i))
			if cum == lo && frac > 0 && cum < n {
				// Target sits between this bucket's last observation and the
				// next non-empty bucket's first; interpolate across the gap.
				for j := i + 1; j < histNumBuckets; j++ {
					if h.buckets[j].Load() != 0 {
						high = float64(bucketLow(j))
						break
					}
				}
				res = low + frac*(high-low)
				break scan
			}
			if low == high {
				res = low
				break scan
			}
			// Spread the bucket's c observations uniformly across its range.
			into := float64(lo-(cum-c)) - 1 + frac
			res = low + (high-low)*into/float64(c)
			break scan
		}
	}
	// Bucket interpolation knows positions only to bucket precision; the
	// recorded extremes are exact, so never report outside them. This is
	// what keeps single-bucket and single-sample histograms honest: the
	// estimate cannot stray below Min or above Max.
	if res < float64(minV) {
		res = float64(minV)
	}
	if res > float64(maxV) {
		res = float64(maxV)
	}
	return res
}

// QuantileDuration is Quantile for nanosecond-valued histograms.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q))
}

// Merge folds other into h. Both may be concurrently recorded into; the
// result is some consistent interleaving. h's count grows by the mass of the
// buckets merged, not by other's live count word. A racing Record may bump a
// bucket before it publishes min and max, or publish them for a bucket the
// merge had already passed, so other's extremes are clamped into the first
// and last merged buckets, where the merged samples' true extremes lie.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	var n uint64
	first, last := -1, -1
	for i := range other.buckets {
		c := other.buckets[i].Load()
		if c == 0 {
			continue
		}
		h.buckets[i].Add(c)
		n += c
		if first < 0 {
			first = i
		}
		last = i
	}
	if n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(other.sum.Load())
	lo := min(max(other.min.Load(), bucketLow(first)), bucketHigh(first))
	hi := min(max(other.max.Load(), bucketLow(last)), bucketHigh(last))
	for {
		cur := h.min.Load()
		if lo >= cur || h.min.CompareAndSwap(cur, lo) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if hi <= cur || h.max.CompareAndSwap(cur, hi) {
			break
		}
	}
}

// Clone returns an independent, frozen copy of h's current contents; it is
// how telemetry carries a distribution out of the goroutines recording into
// it. It is a Merge into an empty histogram, so a clone taken mid-Record is
// self-consistent: its count is the mass of its buckets, and every quantile
// scan ends inside them.
func (h *Histogram) Clone() *Histogram {
	c := NewHistogram()
	c.Merge(h)
	return c
}

// HistogramBucket is one non-empty bucket in a snapshot: the bucket's
// upper bound (inclusive) and its cumulative count.
type HistogramBucket struct {
	UpperBound uint64
	CumCount   uint64
}

// SnapshotBuckets returns the non-empty buckets in ascending order with
// cumulative counts — the shape Prometheus exposition wants. Allocates;
// exposition-path only.
func (h *Histogram) SnapshotBuckets() []HistogramBucket {
	var out []HistogramBucket
	var cum uint64
	for i := 0; i < histNumBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, HistogramBucket{UpperBound: bucketHigh(i), CumCount: cum})
	}
	return out
}
