package core

import (
	"slices"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/tcam"
)

// writePlan is what a table lacks and holds in excess for one rule: entries
// to insert, in want order, and installed entries to delete. del[:drift] are
// wanted IDs installed with other content, which leave before their
// replacement goes in (one entry per ID); the rest are no longer wanted.
type writePlan struct {
	ins, del []classifier.Rule
	drift    int
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
			p.del = append(p.del, got)
		}
		p.ins = append(p.ins, *w)
	}
	p.drift = len(p.del)
	for _, h := range have {
		if !hasID(want, h.ID) && tbl.Contains(h.ID) {
			p.del = append(p.del, h)
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

// written is what the writes of one rule did: their ops' summed latency,
// when the last one completes, the entries inserted and deleted (bulk copies
// aside), and the inserts the table refused (full).
type written struct {
	total, completed time.Duration
	ins, del, failed int
}

// lane is the control-plane queue a write's ops are charged to:
// Switch.SubmitGuaranteed, Switch.Submit, or none for the migration's
// background bulk interface, whose cost startMigration books up front.
type lane uint8

const (
	laneBulk lane = iota
	laneGuaranteed
	laneNormal
)

// planned is one write of a plan: an entry to add, or an installed one to
// remove, of rule owner (nil for none: ranked first), charged to lane via.
type planned struct {
	owner *ruleState
	e     classifier.Rule
	via   lane
	rank  precedence
}

// tablePlan is a plan's writes to one table: the drifted entries, the entries
// to add and the stale entries to remove.
type tablePlan struct {
	drift, add, stale []planned
}

// plan is one operation's writes to every rule it touches (DESIGN.md §17),
// held until commit issues them. The operations that build one are a
// flow-mod, a migration's steps 3–4, a Reconcile sweep and each rule
// Reconcile repairs. gen tells the rules with shadow writes in the plan (a
// rule's planned field equals it); d and ids are write's and commit's scratch.
type plan struct {
	shadow, main tablePlan
	gen          uint32
	d            writePlan
	ids          []classifier.RuleID
}

// write plans making tbl hold want as the entries of rule st (nil for none:
// ranked first), where have are the entries its record says tbl holds for it,
// in the fewest ops, each charged to lane via. Main-table inserts are issued
// at once, so every cut computed after them sees the main table as it will
// be; the main table's stale entries beat nothing in such a cut (beats). The
// rest waits for commit. write returns what the issued inserts did; a.plan.d
// holds the rule's diff until the next write.
func (a *Agent) write(now time.Duration, tbl *tcam.Table, via lane, st *ruleState, have, want []classifier.Rule) written {
	tp := &a.plan.main
	if tbl != a.main {
		tp, have = &a.plan.shadow, a.unplan(st, have)
	}
	d := &a.plan.d
	diff(d, tbl, have, want)
	var rank precedence
	if st != nil {
		rank = st.precedence()
		if tp == &a.plan.shadow {
			st.planned = a.plan.gen
		}
	}
	add := func(to *[]planned, es []classifier.Rule) {
		for _, e := range es {
			*to = append(*to, planned{st, e, via, rank})
		}
	}
	add(&tp.drift, d.del[:d.drift])
	add(&tp.add, d.ins)
	add(&tp.stale, d.del[d.drift:])
	return a.commit(now, st, false)
}

// unplan takes rule st's shadow writes out of the plan, when it has any, and
// returns what the shadow table holds for it: have, and the entries the plan
// was to remove. A rule re-cut twice in one plan is diffed the second time
// against that, so only its last cut is written and a fragment its first cut
// dropped can still be taken over. (No operation writes a main rule's
// entries twice: its inserts go in at once.)
func (a *Agent) unplan(st *ruleState, have []classifier.Rule) []classifier.Rule {
	if st == nil || st.planned != a.plan.gen {
		return have
	}
	tp := &a.plan.shadow
	mine := func(p planned) bool { return p.owner == st }
	for i := range tp.stale {
		if tp.stale[i].owner == st {
			have = append(slices.Clip(have), tp.stale[i].e)
		}
	}
	tp.drift = slices.DeleteFunc(tp.drift, mine)
	tp.add = slices.DeleteFunc(tp.add, mine)
	tp.stale = slices.DeleteFunc(tp.stale, mine)
	return have
}

// commit issues the plan: the main table's inserts, then the shadow table's
// highest precedence first, the shadow table's stale entries lowest
// precedence first, and the main table's stale entries last. Every shadow
// cut was made against the main table as it will be, so an insert only hands
// a packet to the rule that answers it after, never below a higher rule still
// to come, and a packet leaves a stale entry only when no lower stale entry
// is left to catch it. A table's drifted entries leave before its inserts,
// since a table holds one entry per ID. The one exception: a table that
// cannot take its inserts beside its stale entries loses those first, and a
// packet may miss while it does. A run of migration copies leaves in one
// DeleteAll, the bulk interface's one pass over the table; a list of copies
// alone is not sorted, since one DeleteAll removes them at once and their
// order shows nowhere. Any other delete goes one at a time. With all false
// only the main table's inserts go (write). commit returns what rule own's
// writes did.
//
// Nothing else in the package inserts into or deletes from a carved table
// (FuzzStepwiseAtomicity and the equivalence tests catch a write that
// skips the plan); rewriteAction's in-place ModifyAction moves nothing.
func (a *Agent) commit(now time.Duration, own *ruleState, all bool) written {
	w := written{completed: now}
	charge := func(via lane, mine bool, cost time.Duration) bool {
		done := now
		switch via {
		case laneGuaranteed:
			done = a.sw.SubmitGuaranteed(now, cost)
		case laneNormal:
			done = a.sw.Submit(now, cost)
		}
		if mine {
			w.total, w.completed = w.total+cost, done
		}
		return mine
	}
	erase := func(tbl *tcam.Table, dels []planned) {
		ids := a.plan.ids[:0]
		for i, p := range dels {
			if p.via == laneBulk {
				// Copies leave a run at a time, in one pass over the table.
				if ids = append(ids, p.e.ID); i+1 == len(dels) || dels[i+1].via != laneBulk {
					tbl.DeleteAll(ids)
					ids = ids[:0]
				}
			} else if cost, ok := tbl.Delete(p.e.ID); ok && charge(p.via, p.owner == own, cost) {
				w.del++
			}
		}
		a.plan.ids = ids
	}
	insert := func(tbl *tcam.Table, tp *tablePlan) {
		slices.SortStableFunc(tp.add, func(x, y planned) int { return x.rank.cmp(y.rank) })
		if slices.ContainsFunc(tp.stale, func(p planned) bool { return p.via != laneBulk }) {
			slices.SortStableFunc(tp.stale, func(x, y planned) int { return y.rank.cmp(x.rank) })
		}
		erase(tbl, tp.drift)
		if tbl.Free() < len(tp.add) {
			erase(tbl, tp.stale)
			tp.stale = tp.stale[:0]
		}
		for _, p := range tp.add {
			cost, err := tbl.InsertRanked(p.e, p.rank.seq)
			switch mine := p.owner == own; {
			case err != nil && mine:
				w.failed++
			case err == nil && charge(p.via, mine, cost):
				w.ins++
			}
		}
		tp.drift, tp.add = tp.drift[:0], tp.add[:0]
	}
	insert(a.main, &a.plan.main)
	if !all {
		return w
	}
	insert(a.shadow, &a.plan.shadow)
	erase(a.shadow, a.plan.shadow.stale)
	erase(a.main, a.plan.main.stale)
	a.plan.shadow.stale, a.plan.main.stale = a.plan.shadow.stale[:0], a.plan.main.stale[:0]
	a.plan.gen++
	return w
}
