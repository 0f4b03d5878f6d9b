package workload

import "math/rand"

// This file holds the seeded randomness substrate shared by the workload
// generators and the loadgen subsystem: SplitMix64 sub-stream derivation
// (so independent generators never perturb each other's draws) and a
// heavy-tailed Zipf flow-popularity sampler. Everything here is
// deterministic given (seed, label) — the package is covered by the
// determinism analyzer, so no wall clocks and no global math/rand.

// SubSeed derives an independent stream seed from a root seed and a
// stream label using the SplitMix64 finalizer; internal/faultinject draws
// its fault schedules from these streams too. Two labels give
// streams whose draws are statistically independent, so consuming more
// values on one stream never shifts another stream's schedule.
func SubSeed(root int64, label uint64) int64 {
	z := uint64(root) + 0x9E3779B97F4A7C15*(label+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// SubStream returns a *rand.Rand seeded with SubSeed(root, label).
func SubStream(root int64, label uint64) *rand.Rand {
	return rand.New(rand.NewSource(SubSeed(root, label)))
}

// Zipf samples flow indexes in [0, n) with P(k) ∝ 1/(v+k)^s — the
// heavy-tailed flow-popularity model of FDRC-style rule-caching studies:
// a few elephant flows recur constantly while a long tail of mice appears
// once. Index 0 is the most popular flow. Deterministic given its rng.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf builds a sampler over n flows with skew s (> 1; values nearer 1
// give longer tails) and offset v (≥ 1). Out-of-range parameters are
// clamped rather than rejected so sweeps can approach the s→1 boundary
// safely. n must be ≥ 1.
func NewZipf(rng *rand.Rand, s, v float64, n uint64) *Zipf {
	if s <= 1 {
		s = 1.0001
	}
	if v < 1 {
		v = 1
	}
	if n < 1 {
		n = 1
	}
	return &Zipf{z: rand.NewZipf(rng, s, v, n-1)}
}

// Next draws the next flow index.
func (z *Zipf) Next() uint64 { return z.z.Uint64() }
