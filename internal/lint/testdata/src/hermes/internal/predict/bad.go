// Package predict is the determinism call-chain corpus: a deterministic
// package whose own body never mentions time.Now or math/rand, but whose
// helper calls in another package transitively read the wall clock or draw
// from the global random source.
package predict

import "hermes/internal/clockutil"

func horizon(last int64) int64 {
	t := clockutil.Stamp() // want:determinism
	return t - last
}

func window(last int64) int64 {
	return clockutil.Elapsed(last) // want:determinism
}

// spread only reaches pure arithmetic: clean.
func spread(a, b int64) int64 {
	return clockutil.Span(a, b)
}

// noise reaches a global math/rand draw two calls down: the predicate that
// flags a direct use drives the chain too.
func noise() int {
	return clockutil.Jitter() // want:determinism
}

var _ = horizon
var _ = window
var _ = spread
var _ = noise
