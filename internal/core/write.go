package core

import (
	"slices"
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

// write is the agent's one write primitive (DESIGN.md §17): it makes tbl
// hold want as the entries of rule st (nil for none: ranked first), where
// have are the entries its record says tbl holds for it, in the fewest ops.
// A re-cut, a collapse, a delete and Reconcile all end here, and nothing else
// deletes from a carved table. The missing entries go in before the stale
// ones leave, so every packet resolves as before the write or as after it —
// except in a table too full to hold old and new at once, where the stale
// entries leave first. Each op is charged to the table's lane: shadow writes
// are guaranteed work.
func (a *Agent) write(now time.Duration, tbl *tcam.Table, st *ruleState, have, want []classifier.Rule) written {
	diff(&a.plan, tbl, have, want)
	return a.apply(now, tbl, st, &a.plan)
}

// apply issues a plan diff made for rule st's entries in tbl, in write's
// order. While a.deferring, a shadow rule's stale entries wait in a.deferred.
func (a *Agent) apply(now time.Duration, tbl *tcam.Table, st *ruleState, p *writePlan) written {
	w := written{completed: now}
	charge := func(cost time.Duration) {
		w.total += cost
		if tbl == a.shadow {
			w.completed = a.sw.SubmitGuaranteed(now, cost)
		} else {
			w.completed = a.sw.Submit(now, cost)
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
		a.flushDeferred(now)
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
	if a.deferring > 0 && tbl == a.shadow {
		for _, id := range last {
			a.deferred = append(a.deferred, deferredDelete{st, id})
		}
		last = nil
	}
	erase(last)
	return w
}

// deferredDelete is a stale shadow entry of rule owner, deleted once every
// rule a recutAll or an un-partition re-cuts holds its new entries.
type deferredDelete struct {
	owner *ruleState
	id    classifier.RuleID
}

// recutAll re-cuts the listed shadow rules, those still shadow-resident,
// after main-table writes that beat them (repairShadowAfterMainInsert, and
// the repairs an un-partition postponed). Such a re-cut only takes coverage
// away, so the rules may be cut in any order — ID order, as always — as long
// as every stale entry waits until all the new ones are in and then leaves
// lowest precedence first: a packet falls from the rule that answered it
// before straight to the one that answers it after, never to a stale entry
// in between.
func (a *Agent) recutAll(now time.Duration, ids []classifier.RuleID) {
	slices.Sort(ids)
	a.deferring++
	for _, id := range slices.Compact(ids) {
		if st := a.rules[id]; st.place == placeShadow {
			a.reinstallShadowRule(now, st, false)
		}
	}
	if a.deferring--; a.deferring == 0 {
		a.flushDeferred(now)
	}
}

// flushDeferred deletes the deferred stale shadow entries, lowest precedence
// first. A write that needs their room runs it early.
func (a *Agent) flushDeferred(now time.Duration) {
	slices.SortStableFunc(a.deferred, func(x, y deferredDelete) int { return cmpPrecedence(y.owner, x.owner) })
	for _, d := range a.deferred {
		if cost, ok := a.shadow.Delete(d.id); ok {
			a.sw.SubmitGuaranteed(now, cost)
		}
	}
	a.deferred = a.deferred[:0]
}
