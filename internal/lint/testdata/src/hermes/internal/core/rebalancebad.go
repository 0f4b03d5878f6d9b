// rebalancebad.go is the hotpathalloc rebalance corpus: a twin of the
// agent's cache rebalance pass (core/cache.go). A tick in which no rule
// crosses the capacity cut must allocate nothing, so the exact-name roots
// (rebalanceLocked, rankLocked, scoreOf) carry a zero-alloc budget — a fresh
// candidate slice and wanted-set map per tick, and a full re-sort laundered
// through a helper, are the seeded bugs (they are what the pass did before
// it ranked residents against challengers in reused buffers).
package core

type rebalanceAgent struct {
	hits      map[uint64]uint64
	residents []uint64
	rankBuf   []uint64
}

// sortedRules allocates: one hop below the rebalance root.
func (a *rebalanceAgent) sortedRules() []uint64 {
	out := make([]uint64, 0, len(a.hits))
	for id := range a.hits {
		out = append(out, id)
	}
	return out
}

// rankLocked is a rebalance root by exact name: it re-derives the whole
// ranking input and a fresh wanted set on every tick.
func (a *rebalanceAgent) rankLocked() map[uint64]bool {
	rules := a.sortedRules()                  // want:hotpathalloc
	want := make(map[uint64]bool, len(rules)) // want:hotpathalloc
	for _, id := range rules {
		want[id] = a.scoreOf(id) > 0
	}
	return want
}

// scoreOf is the clean pattern: reads, no allocation.
func (a *rebalanceAgent) scoreOf(id uint64) uint64 { return a.hits[id] }

// rebalanceLocked chains through the other roots (their budget is theirs to
// justify) and appends into a reused buffer under a justified ignore.
func (a *rebalanceAgent) rebalanceLocked() int {
	buf := a.rankBuf[:0]
	for _, id := range a.residents {
		if a.scoreOf(id) > 0 {
			//lint:ignore hotpathalloc reused scratch buffer; grows only while the resident set does
			buf = append(buf, id)
		}
	}
	a.rankBuf = buf
	return len(buf) + len(a.rankLocked())
}
