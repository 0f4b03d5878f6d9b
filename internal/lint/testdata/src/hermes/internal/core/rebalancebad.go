// rebalancebad.go is the hotpathalloc rebalance corpus: a twin of the
// agent's cache rebalance pass (core/cache.go). A tick in which no rule
// crosses the capacity cut must allocate nothing, so the pass's functions
// are hot-path roots: a fresh candidate slice and wanted-set map per tick,
// and a full re-sort laundered through a helper, are the seeded bugs. The
// moves only a busy tick makes sit behind coldpath callees: clean.
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

// rankLocked re-derives the whole ranking input and a fresh wanted set on
// every tick.
//hermes:hotpath
func (a *rebalanceAgent) rankLocked() map[uint64]bool {
	rules := a.sortedRules()                  // want:hotpathalloc
	want := make(map[uint64]bool, len(rules)) // want:hotpathalloc
	for _, id := range rules {
		want[id] = a.scoreOf(id) > 0
	}
	return want
}

// scoreOf is the clean pattern: reads, no allocation.
//hermes:hotpath
func (a *rebalanceAgent) scoreOf(id uint64) uint64 { return a.hits[id] }

// rebalanceLocked chains through the other roots (their budget is theirs to
// justify), appends into a reused buffer under a justified ignore, and
// makes its moves through coldpath callees: nothing here is flagged.
//hermes:hotpath
func (a *rebalanceAgent) rebalanceLocked() int {
	buf := a.rankBuf[:0]
	for _, id := range a.residents {
		if a.scoreOf(id) > 0 {
			//lint:ignore hotpathalloc reused scratch buffer; grows only while the resident set does
			buf = append(buf, id)
		} else {
			a.promoteLocked(id)
		}
	}
	a.rankBuf = buf
	a.settle()
	return len(buf) + len(a.rankLocked())
}

// promoteLocked allocates, but only on a tick that moves a rule.
//hermes:coldpath a promotion rewrites the table; quiet ticks make none
func (a *rebalanceAgent) promoteLocked(id uint64) {
	a.residents = append(a.residents, id)
}

// settle allocates only through a coldpath callee, where the closure stops,
// so the root's call to it is clean too.
func (a *rebalanceAgent) settle() {
	if len(a.residents) > 8 {
		a.demoteLocked()
	}
}

// demoteLocked allocates, but only on a tick that moves a rule.
//hermes:coldpath a demotion rewrites the table; quiet ticks make none
func (a *rebalanceAgent) demoteLocked() {
	a.residents = append([]uint64(nil), a.residents[1:]...)
}
