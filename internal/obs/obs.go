// Package obs is the always-on observability layer: lock-free counters and
// gauges, fixed-footprint log-linear latency histograms, a bounded event
// tracer (flow-mod lifecycle and reconciler steps) with a flight recorder
// and a replay digest, and exposition over HTTP in Prometheus text format
// and as a JSON snapshot.
//
// The paper's entire argument is about latency tails — guarantees are
// demonstrated by per-insertion latency distributions and violation rates
// (Figs. 1, 13–14) — so the measurement layer must be cheap enough to stay
// on in production and in every benchmark. Every record-path operation
// (Counter.Add, Gauge.Set, Histogram.Record, Tracer.Record) performs zero
// heap allocations; snapshots, captures and exposition pay the allocation
// cost instead, off the hot path.
//
// Clock discipline: obs never reads the wall clock. Events and samples are
// stamped with caller-provided virtual time (time.Duration offsets, exactly
// like internal/sim), so traces recorded under a seeded schedule — chaos
// runs included — replay bit-identically. The package is enforced
// wall-clock-free by the hermes-lint determinism analyzer.
package obs
