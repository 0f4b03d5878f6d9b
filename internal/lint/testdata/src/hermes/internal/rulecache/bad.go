// Package rulecache is lint-corpus material impersonating the cache
// manager's packet-sampling hot path (DESIGN.md §16): the per-packet
// sampling hooks are //hermes:hotpath roots, and the sampling decision must
// depend on the packet hash and epoch, never the wall clock (determinism).
package rulecache

import "time"

// Manager stands in for rulecache.Manager: a fixed sample ring plus the
// per-rule stats map the fold drains into.
type Manager struct {
	ring  [16]uint64
	head  int
	stats map[uint64]*RuleStats
}

// RuleStats stands in for the per-rule hit accumulator.
type RuleStats struct {
	hits uint64
}

// RecordHit buffers the epoch in a fresh slice per hit: flagged.
//hermes:hotpath
func (s *RuleStats) RecordHit(epoch uint64) {
	pending := []uint64{epoch} // want:hotpathalloc
	s.hits += uint64(len(pending))
}

// SampleHW launders an allocation in through a helper one hop below it.
//hermes:hotpath
func (m *Manager) SampleHW(dst, src uint32, id uint64) {
	if m.head == len(m.ring) {
		m.spill(id) // want:hotpathalloc
		return
	}
	m.ring[m.head] = id ^ uint64(dst)<<32 ^ uint64(src)
	m.head++
}

// spill allocates: one hop below SampleHW.
func (m *Manager) spill(id uint64) {
	overflow := make([]uint64, 0, 1)
	overflow = append(overflow, id)
	m.ring[0] = overflow[0]
}

// samplePoint derives the sampling decision from the wall clock instead of
// the packet hash and epoch: replayed runs would promote different rules.
//hermes:hotpath
func (m *Manager) samplePoint(dst, src uint32) bool {
	seed := time.Now().UnixNano() // want:determinism
	return (seed^int64(dst)^int64(src))&7 == 0
}

// FoldSamples is the legal shape: it drains the preallocated ring into
// preexisting stats entries, so nothing here may be flagged.
//hermes:hotpath
func (m *Manager) FoldSamples(epoch uint64) {
	for i := 0; i < m.head; i++ {
		if s := m.stats[m.ring[i]]; s != nil {
			s.RecordHit(epoch)
		}
	}
	m.head = 0
}
