// Package clockutil is corpus scaffolding for the determinism analyzer: a
// helper package *outside* the deterministic set that reads the wall clock
// and draws global randomness. Its own body is legal; what the analyzer
// must catch is a deterministic package laundering either in through these
// helpers.
package clockutil

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock directly.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Elapsed launders Stamp through one more hop.
func Elapsed(since int64) int64 {
	return Stamp() - since
}

// Jitter draws from the process-global source through one helper hop.
func Jitter() int {
	return draw(8)
}

func draw(n int) int {
	return rand.Intn(n)
}

// Span is pure arithmetic: no wall clock anywhere below it.
func Span(a, b int64) int64 {
	return b - a
}
