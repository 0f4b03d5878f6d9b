package main

import (
	"runtime"
	"sort"
	"time"
)

// epoch anchors every wall-clock stamp the harness takes; stamps are
// monotonic nanoseconds since process start, so spans from different
// goroutines share one clock.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// rep is what one repetition of a workload (fresh state, fixed work)
// measured. The end-to-end metrics of a run are medians over its reps.
type rep struct {
	SetupS    float64 // construct, preload, warm: everything before the first measured op
	Ops       int     // primary ops (flow-mods or lookups) in the measured window
	WallS     float64 // wall time of the measured window
	P50us     float64 // primary-op latency quantiles over the window's samples
	P99us     float64
	Samples   int     // latency samples behind the quantiles
	HeapMB    float64 // HeapAlloc after a forced GC at the end of the window
	Attempted int     // every op issued, warm-up and writes included
	Failed    int

	// Allocation and GC deltas across the measured window.
	AllocsPerOp, BytesPerOp, GCPauseMS, GCCycles float64

	// Layer holds the per-layer numbers this rep could observe.
	Layer map[string]float64
	// Exact renders the model-time counters that must repeat bit-for-bit
	// across reps of one input (virtual-time workloads only).
	Exact string
}

func (r *rep) kops() float64 { return float64(r.Ops) / r.WallS / 1e3 }

// window brackets a measured window: begin before the first measured op,
// end after the last. end forces a GC so HeapAlloc is live data only.
type window struct {
	before runtime.MemStats
	start  int64
}

func beginWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.before)
	w.start = nowNS()
	return w
}

func (w *window) end(r *rep, ops int) {
	stop := nowNS()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	r.Ops = ops
	r.WallS = float64(stop-w.start) / 1e9
	r.HeapMB = float64(live.HeapAlloc) / 1e6
	r.AllocsPerOp = float64(after.Mallocs-w.before.Mallocs) / float64(ops)
	r.BytesPerOp = float64(after.TotalAlloc-w.before.TotalAlloc) / float64(ops)
	r.GCPauseMS = float64(after.PauseTotalNs-w.before.PauseTotalNs) / 1e6
	r.GCCycles = float64(after.NumGC - w.before.NumGC)
}

func sortNS(ns []int64) { sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] }) }

// setLatency sorts the window's latency samples (ns) in place and records
// the median and p99 in microseconds.
func (r *rep) setLatency(ns []int64) {
	sortNS(ns)
	r.Samples = len(ns)
	r.P50us = float64(quantileNS(ns, 0.50)) / 1e3
	r.P99us = float64(quantileNS(ns, 0.99)) / 1e3
}

// quantileNS reads the q-quantile of an ascending sample.
func quantileNS(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// medianNS sorts ns in place and returns its median.
func medianNS(ns []int64) int64 {
	sortNS(ns)
	return quantileNS(ns, 0.5)
}

// fnvMix folds one value into an FNV-64a style input digest; start from
// fnvOffset.
func fnvMix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

const fnvOffset = 14695981039346656037

// summary is one metric over the repetitions that measured it.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Reps   int     `json:"reps"`
	// Samples counts the per-op samples behind one rep's value (1 for a
	// rate or a count).
	Samples int `json:"samples"`
}

func summarize(unit string, vals []float64, samples int) summary {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	s := summary{Unit: unit, Reps: len(v), Samples: samples}
	if len(v) == 0 {
		return s
	}
	s.Min, s.Max = v[0], v[len(v)-1]
	s.Median = v[len(v)/2]
	if len(v)%2 == 0 {
		s.Median = (v[len(v)/2-1] + v[len(v)/2]) / 2
	}
	return s
}

func median(vals []float64) float64 { return summarize("", vals, 0).Median }

// per divides a total by a count; a probe too small to have counted
// anything (the smoke run) reports 0 instead of NaN.
func per(total, count float64) float64 {
	if count == 0 {
		return 0
	}
	return total / count
}
