package core

import (
	"math/rand"
	"slices"
	"testing"

	"hermes/internal/classifier"
)

// oracleCutIndex is the remove-then-record index: dependents are kept in one
// list per cause, so re-recording a cut costs O(causes × dependents). The
// rules' seq is their ID.
type oracleCutIndex struct {
	byOriginal map[classifier.RuleID]*classifier.Partition
	byCause    map[classifier.RuleID][]classifier.RuleID
	byPart     map[classifier.RuleID]classifier.RuleID
}

func newOracleCutIndex() *oracleCutIndex {
	return &oracleCutIndex{
		byOriginal: make(map[classifier.RuleID]*classifier.Partition),
		byCause:    make(map[classifier.RuleID][]classifier.RuleID),
		byPart:     make(map[classifier.RuleID]classifier.RuleID),
	}
}

func (m *oracleCutIndex) Record(p classifier.Partition) {
	if !p.WasCut() {
		return
	}
	cp := p
	cp.Cause = slices.Clone(p.Cause) // the Partitioner reuses the caller's
	m.byOriginal[p.Original.ID] = &cp
	for _, c := range p.Cause {
		m.byCause[c] = append(m.byCause[c], p.Original.ID)
	}
	for _, part := range p.Parts {
		m.byPart[part.ID] = p.Original.ID
	}
}

// DependentsOf lists the rules mainRule cut, highest priority first, then by
// ID (the seq).
func (m *oracleCutIndex) DependentsOf(mainRule classifier.RuleID) []classifier.RuleID {
	deps := append([]classifier.RuleID(nil), m.byCause[mainRule]...)
	prio := func(id classifier.RuleID) int32 { return m.byOriginal[id].Original.Priority }
	slices.SortFunc(deps, func(a, b classifier.RuleID) int {
		if prio(a) != prio(b) {
			return int(prio(b) - prio(a))
		}
		return int(a) - int(b)
	})
	return deps
}

func (m *oracleCutIndex) Remove(original classifier.RuleID) {
	p, ok := m.byOriginal[original]
	if !ok {
		return
	}
	delete(m.byOriginal, original)
	for _, c := range p.Cause {
		deps := m.byCause[c]
		for i, d := range deps {
			if d == original {
				m.byCause[c] = append(deps[:i], deps[i+1:]...)
				break
			}
		}
		if len(m.byCause[c]) == 0 {
			delete(m.byCause, c)
		}
	}
	for _, part := range p.Parts {
		delete(m.byPart, part.ID)
	}
}

// nestedPrefix draws a prefix of any length 0–32 along one of a few address
// chains, so that containment, partial overlap and exact duplicates are all
// frequent; one draw in eight leaves the chains for a random address.
func nestedPrefix(rng *rand.Rand, chains []uint32) classifier.Prefix {
	addr := chains[rng.Intn(len(chains))]
	if rng.Intn(8) == 0 {
		addr = rng.Uint32()
	}
	return classifier.NewPrefix(addr, uint8(rng.Intn(33)))
}

// nestedRuleSet draws the classifier's Partitioner oracle inputs: dst and src
// prefixes on separate chains, a third of the rules FIB-style (any src).
func nestedRuleSet(rng *rand.Rand, n int) []classifier.Rule {
	chains := []uint32{rng.Uint32(), rng.Uint32(), rng.Uint32()}
	srcChains := []uint32{rng.Uint32(), rng.Uint32()}
	rules := make([]classifier.Rule, n)
	for i := range rules {
		rules[i] = classifier.Rule{
			ID:       classifier.RuleID(i + 1),
			Match:    classifier.Match{Dst: nestedPrefix(rng, chains), Src: nestedPrefix(rng, srcChains)},
			Priority: int32(rng.Intn(4)),
			Action:   classifier.Action{Type: classifier.ActionForward, Port: i},
		}
		if rng.Intn(3) == 0 {
			rules[i].Match.Src = classifier.Prefix{} // FIB-style
		}
	}
	return rules
}

// checkCutIndexEquivalence cuts every rule of the set against all the others
// and records each cut in a cutIndex (record over the old one) and in the
// oracle (remove, then record). Every rule is cut twice, the second time
// after main-table churn, so re-records with a moved cause list are
// exercised; the churn also forgets some records and strikes a few rules
// from the causes they are on (what a delete that gives a dependent nothing
// back does: to the oracle, a re-record without it). Each rule's record, the
// fragment index and the dependentsOf order of every main rule must agree
// throughout.
func checkCutIndexEquivalence(t *testing.T, rules []classifier.Rule, merge bool, maxRegions int) {
	t.Helper()
	var trie classifier.Trie
	states := make(map[classifier.RuleID]*ruleState, len(rules))
	for _, r := range rules {
		trie.Insert(r)
		st := &ruleState{original: r, seq: uint64(r.ID)}
		st.parts = st.whole()
		states[r.ID] = st
	}
	var pt classifier.Partitioner
	x, om := newCutIndex(), newOracleCutIndex()
	next := classifier.RuleID(1 << 20)
	mint := func() classifier.RuleID { next++; return next }
	ids := func(deps []*ruleState) []classifier.RuleID {
		var out []classifier.RuleID
		for _, st := range deps {
			out = append(out, st.original.ID)
		}
		return out
	}
	compare := func(when string) {
		t.Helper()
		for _, r := range rules {
			if got, want := ids(x.dependentsOf([]classifier.Rule{r})), om.DependentsOf(r.ID); !slices.Equal(got, want) {
				t.Fatalf("%s: dependentsOf(%d) = %v, oracle %v", when, r.ID, got, want)
			}
			st := states[r.ID]
			want, recorded := om.byOriginal[r.ID]
			if (st.cut != nil) != recorded {
				t.Fatalf("%s: rule %d recorded %v, oracle %v", when, r.ID, st.cut != nil, recorded)
			}
			if !recorded {
				if !slices.Equal(st.parts, []classifier.Rule{r}) {
					t.Fatalf("%s: uncut rule %d has parts %v", when, r.ID, st.parts)
				}
				continue
			}
			if !slices.Equal(st.parts, want.Parts) || !slices.Equal(st.cut.cause, want.Cause) {
				t.Fatalf("%s: rule %d records parts %v causes %v, oracle %v %v", when, r.ID, st.parts, st.cut.cause, want.Parts, want.Cause)
			}
			for _, part := range want.Parts {
				if x.byPart[part.ID] != st {
					t.Fatalf("%s: fragment %d of rule %d not indexed to it", when, part.ID, r.ID)
				}
			}
		}
		if len(x.byPart) != len(om.byPart) {
			t.Fatalf("%s: %d fragments indexed, oracle %d", when, len(x.byPart), len(om.byPart))
		}
	}
	cut := func(r classifier.Rule) {
		t.Helper()
		wins := func(existing classifier.Rule) bool { return existing.Priority >= r.Priority }
		p := pt.Partition(r, trie.OverlapCandidates(r.Match, r.Priority), wins, mint, merge, maxRegions)
		om.Remove(r.ID)
		st := states[r.ID]
		if p.Overflow {
			x.forget(st)
			st.parts = st.whole()
			return
		}
		om.Record(p)
		x.record(st, p)
	}
	for _, r := range rules {
		cut(r)
	}
	compare("first cut")
	for i, r := range rules {
		switch i % 6 {
		case 0, 3:
			trie.Delete(r.Match.Dst, r.ID)
		case 1:
			trie.Delete(r.Match.Dst, r.ID)
			trie.Insert(r)
		case 2:
			om.Remove(r.ID)
			x.forget(states[r.ID])
			states[r.ID].parts = states[r.ID].whole()
		case 4:
			for _, o := range om.DependentsOf(r.ID) {
				p := *om.byOriginal[o]
				if len(p.Cause) == 1 {
					continue // the agent never strikes a last cause: nothing would cut the rule
				}
				p.Cause = slices.DeleteFunc(slices.Clone(p.Cause), func(c classifier.RuleID) bool { return c == r.ID })
				om.Remove(o)
				om.Record(p)
				x.setCause(states[o], p.Cause)
			}
		}
	}
	compare("churn")
	for i := len(rules) - 1; i >= 0; i-- {
		cut(rules[i])
	}
	compare("second cut")
	for _, r := range rules {
		om.Remove(r.ID)
		x.forget(states[r.ID])
		states[r.ID].parts = states[r.ID].whole()
	}
	compare("drained")
	if len(x.byCause) != 0 || len(x.byPart) != 0 {
		t.Fatalf("drained index keeps %d causes, %d fragments", len(x.byCause), len(x.byPart))
	}
}

func TestCutIndexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sets := 2000
	if testing.Short() {
		sets = 200
	}
	for i := 0; i < sets; i++ {
		rules := nestedRuleSet(rng, 2+rng.Intn(40))
		checkCutIndexEquivalence(t, rules, i%2 == 0, []int{0, 8, 128}[i%3])
	}
}

// TestCutIndexCauseEdits: setCause links and unlinks what left or joined the
// list without touching the parts — a cause struck, one added, the list
// replaced, the list unchanged — and dependentsOf keeps precedence order
// through it.
func TestCutIndexCauseEdits(t *testing.T) {
	x := newCutIndex()
	states := map[classifier.RuleID]*ruleState{}
	part := func(id classifier.RuleID) []classifier.Rule { return []classifier.Rule{{ID: 100 + id}} }
	record := func(id classifier.RuleID, cause ...classifier.RuleID) {
		states[id] = &ruleState{original: classifier.Rule{ID: id}, seq: uint64(id)}
		x.record(states[id], classifier.Partition{Original: classifier.Rule{ID: id}, Parts: part(id), Cause: cause})
	}
	record(1, 10, 20)
	record(2, 20, 30)
	record(3, 20)
	deps := func(c classifier.RuleID, want ...classifier.RuleID) {
		t.Helper()
		var got []classifier.RuleID
		for _, st := range x.dependentsOf([]classifier.Rule{{ID: c}}) {
			got = append(got, st.original.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("dependentsOf(%d) = %v, want %v", c, got, want)
		}
	}
	causes := func(o classifier.RuleID, want ...classifier.RuleID) {
		t.Helper()
		st := states[o]
		if st.cut == nil || !slices.Equal(st.cut.cause, want) || !slices.Equal(st.parts, part(o)) {
			t.Fatalf("rule %d: cut %+v, parts %v; want causes %v and parts %v", o, st.cut, st.parts, want, part(o))
		}
	}
	deps(20, 1, 2, 3)
	x.setCause(states[1], []classifier.RuleID{20})
	causes(1, 20)
	deps(10)
	deps(20, 1, 2, 3)
	x.setCause(states[2], []classifier.RuleID{20, 30, 40})
	causes(2, 20, 30, 40)
	deps(40, 2)
	deps(20, 1, 2, 3)
	x.setCause(states[3], []classifier.RuleID{30, 40})
	causes(3, 30, 40)
	deps(20, 1, 2)
	deps(30, 2, 3)
	deps(40, 2, 3)
	x.setCause(states[2], []classifier.RuleID{20, 30, 40}) // the same list: nothing moves
	causes(2, 20, 30, 40)
	deps(30, 2, 3)
	for _, o := range []classifier.RuleID{1, 2, 3} {
		x.forget(states[o])
	}
	if len(x.byCause) != 0 || len(x.byPart) != 0 {
		t.Fatalf("drained index keeps %d causes, %d fragments", len(x.byCause), len(x.byPart))
	}
}

// TestCutIndexRecordForget: a cut's fragments map back to their rule and its
// causes list it until the record is forgotten; forgetting twice is a no-op.
func TestCutIndexRecordForget(t *testing.T) {
	x := newCutIndex()
	st := &ruleState{original: classifier.Rule{ID: 10}}
	st.parts = st.whole()
	x.record(st, classifier.Partition{
		Original: st.original,
		Parts:    []classifier.Rule{{ID: 100}, {ID: 101}},
		Cause:    []classifier.RuleID{1, 2},
	})
	if st.cut == nil || len(st.parts) != 2 {
		t.Fatalf("recorded cut %+v, parts %v", st.cut, st.parts)
	}
	if x.byPart[101] != st {
		t.Errorf("fragment 101 indexed to %v", x.byPart[101])
	}
	cause := []classifier.Rule{{ID: 1}}
	if deps := x.dependentsOf(cause); len(deps) != 1 || deps[0] != st {
		t.Errorf("dependentsOf(1) = %v", deps)
	}
	x.forget(st)
	if st.cut != nil || len(x.byPart) != 0 || x.dependentsOf(cause) != nil {
		t.Errorf("after forget: cut %+v, %d fragments indexed, dependents %v", st.cut, len(x.byPart), x.dependentsOf(cause))
	}
	x.forget(st)
}

// TestCutIndexIgnoresUncut: a partition that was not cut records nothing and
// leaves the rule whole, its parts aliasing the original.
func TestCutIndexIgnoresUncut(t *testing.T) {
	x := newCutIndex()
	st := &ruleState{original: classifier.Rule{ID: 10}}
	st.parts = st.whole()
	x.record(st, classifier.Partition{Original: st.original, Parts: []classifier.Rule{st.original}})
	if st.cut != nil || len(x.byPart) != 0 || !slices.Equal(st.parts, []classifier.Rule{st.original}) {
		t.Errorf("uncut rule recorded: cut %+v, %d fragments indexed, parts %v", st.cut, len(x.byPart), st.parts)
	}
	st.original.Action.Port = 7
	if st.parts[0].Action.Port != 7 {
		t.Error("an uncut rule's parts do not alias its original")
	}
}
