package core

import (
	"slices"
	"sort"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/tcam"
)

// writePlan is what a table lacks and holds in excess for one rule: entries
// to insert, in want order, and installed IDs to delete. del[:drift] are
// wanted IDs installed with other content, which leave before their
// replacement goes in (one entry per ID); the rest are no longer wanted.
type writePlan struct {
	ins   []classifier.Rule
	del   []classifier.RuleID
	drift int
}

func (p *writePlan) empty() bool { return len(p.ins) == 0 && len(p.del) == 0 }

// diff plans, into p's buffers, making tbl hold want for a rule whose record
// says tbl holds have for it. An entry installed as wanted is left alone, and
// so is an installed entry of have equal to a wanted one in all but its ID:
// the wanted entry takes over that ID (want is rewritten in place), so a
// re-cut does not rewrite a fragment it cuts again.
func diff(p *writePlan, tbl *tcam.Table, have, want []classifier.Rule) {
	p.ins, p.del = p.ins[:0], p.del[:0]
	for i := range want {
		w := &want[i]
		got, installed := tbl.Get(w.ID)
		if installed && got == *w {
			continue
		}
		if id, ok := installedTwin(tbl, have, want, *w); ok {
			w.ID = id
			continue
		}
		if installed {
			p.del = append(p.del, w.ID)
		}
		p.ins = append(p.ins, *w)
	}
	p.drift = len(p.del)
	for _, h := range have {
		if !hasID(want, h.ID) && tbl.Contains(h.ID) {
			p.del = append(p.del, h.ID)
		}
	}
}

// installedTwin finds an entry of have installed as recorded that equals w
// in all but an ID no wanted entry holds yet.
func installedTwin(tbl *tcam.Table, have, want []classifier.Rule, w classifier.Rule) (classifier.RuleID, bool) {
	for _, h := range have {
		if h.Match != w.Match || h.Priority != w.Priority || h.Action != w.Action || hasID(want, h.ID) {
			continue
		}
		if got, ok := tbl.Get(h.ID); ok && got == h {
			return h.ID, true
		}
	}
	return 0, false
}

func hasID(rules []classifier.Rule, id classifier.RuleID) bool {
	for _, r := range rules {
		if r.ID == id {
			return true
		}
	}
	return false
}

// written is what one write did: its ops' summed latency, when the last one
// completes, the entries it inserted and deleted, and the inserts the table
// refused (full).
type written struct {
	total, completed time.Duration
	ins, del, failed int
}

// lane is the control-plane queue a write's ops are charged to:
// Switch.SubmitGuaranteed, Switch.Submit, or nil for the migration's
// background bulk interface, whose cost startMigration books up front.
type lane func(now, cost time.Duration) time.Duration

// write is the agent's one write primitive (DESIGN.md §17): it makes tbl
// hold want as the entries of rule st (nil for none: ranked first), where
// have are the entries its record says tbl holds for it, in the fewest ops,
// each charged to lane via. Nothing else in the package inserts into or
// deletes from a carved table (rewriteAction's in-place ModifyAction moves
// nothing). The missing entries go in before the stale ones leave, so every
// packet resolves as before the write or as after it — except in a table too
// full to hold old and new at once, where the stale entries leave first.
func (a *Agent) write(now time.Duration, tbl *tcam.Table, via lane, st *ruleState, have, want []classifier.Rule) written {
	diff(&a.plan, tbl, have, want)
	return a.apply(now, tbl, via, st, &a.plan)
}

// apply issues a plan diff made for rule st's entries in tbl, in write's
// order. While the agent holds, a shadow write's stale entries wait in
// a.pending; a shadow write short of room drains them first.
func (a *Agent) apply(now time.Duration, tbl *tcam.Table, via lane, st *ruleState, p *writePlan) written {
	w := written{completed: now}
	charge := func(cost time.Duration) {
		w.total += cost
		if via != nil {
			w.completed = via(now, cost)
		}
	}
	erase := func(ids []classifier.RuleID) {
		for _, id := range ids {
			if cost, ok := tbl.Delete(id); ok {
				w.del++
				charge(cost)
			}
		}
	}
	first, last := p.del[:p.drift], p.del[p.drift:]
	if tbl == a.shadow && tbl.Free()+len(first) < len(p.ins) {
		a.drain(now, nil)
	}
	if tbl.Free()+len(first) < len(p.ins) {
		first, last = p.del, nil
	}
	erase(first)
	var seq uint64
	if st != nil {
		seq = st.seq
	}
	for _, e := range p.ins {
		if cost, err := tbl.InsertRanked(e, seq); err != nil {
			w.failed++
		} else {
			w.ins++
			charge(cost)
		}
	}
	if a.holding > 0 && tbl == a.shadow {
		for _, id := range last {
			a.pending = append(a.pending, pendingDelete{st.precedence(), id, via == nil})
		}
		last = nil
	}
	erase(last)
	return w
}

// pendingDelete is a stale shadow entry, held back while the agent holds,
// with the precedence of the rule it belonged to: a re-cut's, charged to the
// guaranteed lane when it leaves, or a migrated rule's copy (bulk), charged
// to none.
type pendingDelete struct {
	owner precedence
	id    classifier.RuleID
	bulk  bool
}

// hold opens a span in which shadow writes leave their stale entries in
// a.pending; release closes it, and the outermost release drains them.
// recutAll and unpartitionDependents hold while they re-cut, advance across
// steps 3–4.
func (a *Agent) hold() { a.holding++ }

func (a *Agent) release(now time.Duration) {
	if a.holding--; a.holding == 0 {
		a.drain(now, nil)
	}
}

// drain deletes the pending entries of the rules ranked below st, or all of
// them when st is nil, lowest precedence first: a packet falls from the rule
// that answered it before straight to the one that answers it after, never to
// a stale entry in between. Each run of entries on one lane leaves in one
// DeleteAll: a run of re-cut entries is charged to the guaranteed lane, a run
// of copies (step 4's bulk invalidation) to none. SubmitGuaranteed is
// additive, so one submission of a run's summed cost completes when one per
// delete would.
func (a *Agent) drain(now time.Duration, st *ruleState) {
	// Sorted only where the order shows: the whole list on one lane leaves in
	// one DeleteAll, which removes its entries at once. Once sorted, the list
	// stays so until the next write appends to it.
	lowestFirst := func(x, y pendingDelete) int { return y.owner.cmp(x.owner) }
	oneRun := st == nil && !slices.ContainsFunc(a.pending, func(d pendingDelete) bool {
		return d.bulk != a.pending[0].bulk
	})
	if !oneRun && !slices.IsSortedFunc(a.pending, lowestFirst) {
		slices.SortStableFunc(a.pending, lowestFirst)
	}
	n := len(a.pending)
	if st != nil {
		n = sort.Search(n, func(i int) bool { return a.pending[i].owner.cmp(st.precedence()) <= 0 })
	}
	for i := 0; i < n; {
		ids, bulk := a.drainIDs[:0], a.pending[i].bulk
		for ; i < n && a.pending[i].bulk == bulk; i++ {
			ids = append(ids, a.pending[i].id)
		}
		a.drainIDs = ids
		if cost, k := a.shadow.DeleteAll(ids); k > 0 && !bulk {
			a.sw.SubmitGuaranteed(now, cost)
		}
	}
	a.pending = slices.Delete(a.pending, 0, n)
}

// recutAll re-cuts the listed shadow rules, those still shadow-resident,
// after main-table writes that beat them (repairShadowAfterMainInsert, and
// the repairs an un-partition postponed). Such a re-cut only takes coverage
// away, so the rules may be cut in any order — ID order, as always — as long
// as every stale entry waits until all the new ones are in (hold).
func (a *Agent) recutAll(now time.Duration, ids []classifier.RuleID) {
	slices.Sort(ids)
	a.hold()
	for _, id := range slices.Compact(ids) {
		if st := a.rules[id]; st.place == placeShadow {
			a.reinstallShadowRule(now, st, false)
		}
	}
	a.release(now)
}
