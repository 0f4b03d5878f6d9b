// Package obs is lint-corpus material impersonating the observability
// record path: per-sample record functions are hot-path roots that must not
// allocate, and the package must never read the wall clock (determinism):
// events carry caller-provided virtual time so seeded schedules replay.
package obs

import "time"

// Histogram stands in for obs.Histogram: fixed-footprint buckets the legal
// record path reuses.
type Histogram struct {
	buckets []uint64
	labels  map[string]string
}

// Record allocates a label map per sample: flagged.
//hermes:hotpath
func (h *Histogram) Record(v uint64) {
	tags := make(map[string]string) // want:hotpathalloc
	tags["v"] = "sample"
	if int(v) < len(h.buckets) {
		h.buckets[v]++
	}
	_ = tags
}

// RecordDuration buffers samples in a fresh slice literal it grows: flagged.
//hermes:hotpath
func (h *Histogram) RecordDuration(d time.Duration) {
	samples := []uint64{}                // want:hotpathalloc
	samples = append(samples, uint64(d)) // want:hotpathalloc
	if len(samples) > 0 && int(samples[0]) < len(h.buckets) {
		h.buckets[samples[0]]++
	}
}

// Inc stamps the event with the wall clock: determinism, not allocation.
//hermes:hotpath
func (h *Histogram) Inc() {
	at := time.Now() // want:determinism
	if at.IsZero() {
		return
	}
	h.buckets[0]++
}

// Add is a legal record-path function: it touches only preallocated state,
// so nothing here may be flagged.
//hermes:hotpath
func (h *Histogram) Add(v uint64) {
	if int(v) < len(h.buckets) {
		h.buckets[v] += v
	}
}

// Reset is off the record path (snapshot/lifecycle code); it may allocate
// freely and none of these lines may be flagged.
func (h *Histogram) Reset() {
	h.buckets = make([]uint64, 64)
	h.labels = map[string]string{}
}
