package core_test

// Step-wise atomicity (PAPER.md §5.2): every write the agent issues is checked
// before it lands. A fault hook on both slices runs the exact checker before
// every physical op and demands that each packet resolve as the logical table
// before the enclosing flow-mod or as the one after it — never as a third
// table, which is what a hole between a delete and the insert replacing it
// shows.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/tcam"
	"hermes/internal/verify"
	"hermes/internal/workload"
)

// stepCheck holds the test's own logical tables: the one before the flow-mod
// under way and every one it may pass through. It never asks the agent (whose
// write lock is held inside the hook), only the switch's slices.
type stepCheck struct {
	sw      *tcam.Switch
	logical []classifier.Rule // insertion order: earlier wins a priority tie
	refs    [][]classifier.Rule
	doing   string // the call under way
	checks  int
	hole    string // the first failure, with the op it preceded
}

func newStepCheck(a *core.Agent) *stepCheck {
	c := &stepCheck{sw: a.Switch()}
	for _, tbl := range c.sw.Slices() {
		tbl.SetFaultHook(func(op tcam.Op, id classifier.RuleID) tcam.OpFault {
			c.check(fmt.Sprintf("before %v of %d in %s", op, id, tbl.Name()))
			return tcam.OpFault{}
		})
	}
	return c
}

// lookupIn is a monolithic table's answer: highest priority, earliest
// inserted among equals.
func lookupIn(rules []classifier.Rule, dst, src uint32) (classifier.Rule, bool) {
	var best classifier.Rule
	found := false
	for _, r := range rules {
		if r.Match.MatchesPacket(dst, src) && (!found || r.Priority > best.Priority) {
			best, found = r, true
		}
	}
	return best, found
}

// check proves every packet resolves as one of the reference tables. The
// region decomposition takes every logical rule and every installed entry,
// so a fragment's edges are probed too.
func (c *stepCheck) check(where string) {
	c.checks++
	if c.hole != "" {
		return
	}
	var rules []classifier.Rule
	for _, ref := range c.refs {
		rules = append(rules, ref...)
	}
	for _, tbl := range c.sw.Slices() {
		rules = append(rules, tbl.Rules()...)
	}
	either := func(dst, src uint32) (classifier.Rule, bool) {
		got, gok := c.sw.Lookup(dst, src)
		for _, ref := range c.refs {
			if r, ok := lookupIn(ref, dst, src); ok == gok && (!ok || r.Action == got.Action) {
				return r, ok
			}
		}
		return lookupIn(c.refs[0], dst, src)
	}
	if ce := verify.Equivalent(c.sw.Lookup, either, rules); ce != nil {
		c.hole = fmt.Sprintf("%s, %s: %s", c.doing, where, ce)
	}
}

// step runs one agent call that takes the logical table through the listed
// states (none for a Tick or an Advance), checking before every physical op
// and once more after the call.
func (c *stepCheck) step(t *testing.T, doing string, states [][]classifier.Rule, call func() error) {
	t.Helper()
	c.doing = doing
	c.refs = append([][]classifier.Rule{c.logical}, states...)
	if err := call(); err != nil {
		t.Fatal(err)
	}
	if len(states) > 0 {
		c.logical = states[len(states)-1]
	}
	c.refs = [][]classifier.Rule{c.logical}
	c.check("after the call")
}

// flowMod returns the logical tables one flow-mod takes from through: one
// for an insert, a delete or a modify that rewrites an action in place; two
// for a modify of match or priority, the delete and the insert §4.1 makes of
// it, with the table between them as their common state.
func flowMod(from []classifier.Rule, op core.BatchOp) [][]classifier.Rule {
	without := func(id classifier.RuleID) []classifier.Rule {
		return slices.DeleteFunc(slices.Clone(from), func(r classifier.Rule) bool { return r.ID == id })
	}
	switch op.Kind {
	case core.BatchInsert:
		return [][]classifier.Rule{append(slices.Clone(from), op.Rule)}
	case core.BatchDelete:
		return [][]classifier.Rule{without(op.Rule.ID)}
	}
	i := slices.IndexFunc(from, func(x classifier.Rule) bool { return x.ID == op.Rule.ID })
	if old := from[i]; old.Match == op.Rule.Match && old.Priority == op.Rule.Priority {
		s := slices.Clone(from)
		s[i] = op.Rule
		return [][]classifier.Rule{s}
	}
	gone := without(op.Rule.ID)
	return [][]classifier.Rule{gone, append(slices.Clone(gone), op.Rule)}
}

func (c *stepCheck) insert(t *testing.T, a *core.Agent, now time.Duration, r classifier.Rule) {
	t.Helper()
	c.step(t, fmt.Sprintf("insert %v at %v", r, now), flowMod(c.logical, core.BatchOp{Kind: core.BatchInsert, Rule: r}), func() error {
		_, err := a.Insert(now, r)
		return err
	})
}

func (c *stepCheck) delete(t *testing.T, a *core.Agent, now time.Duration, id classifier.RuleID) {
	t.Helper()
	op := core.BatchOp{Kind: core.BatchDelete, Rule: classifier.Rule{ID: id}}
	c.step(t, fmt.Sprintf("delete %d at %v", id, now), flowMod(c.logical, op), func() error {
		_, err := a.Delete(now, id)
		return err
	})
}

func (c *stepCheck) modify(t *testing.T, a *core.Agent, now time.Duration, r classifier.Rule) {
	t.Helper()
	c.step(t, fmt.Sprintf("modify %v at %v", r, now), flowMod(c.logical, core.BatchOp{Kind: core.BatchModify, Rule: r}), func() error {
		_, err := a.Modify(now, r)
		return err
	})
}

// batch applies ops as one ApplyBatch: a packet may resolve as the table
// before it or as any table one of its flow-mods leaves behind.
func (c *stepCheck) batch(t *testing.T, a *core.Agent, now time.Duration, ops []core.BatchOp) {
	t.Helper()
	var states [][]classifier.Rule
	for _, op := range ops {
		from := c.logical
		if len(states) > 0 {
			from = states[len(states)-1]
		}
		states = append(states, flowMod(from, op)...)
	}
	c.step(t, fmt.Sprintf("batch of %d at %v", len(ops), now), states, func() error {
		for i, res := range a.ApplyBatch(now, ops, nil) {
			if res.Err != nil {
				return fmt.Errorf("batch op %d (%v): %w", i, ops[i], res.Err)
			}
		}
		return nil
	})
}

// migrate runs a forced migration to completion; the logical table stays.
func (c *stepCheck) migrate(t *testing.T, a *core.Agent, now time.Duration) {
	t.Helper()
	var end time.Duration
	c.step(t, fmt.Sprintf("migration at %v", now), nil, func() error {
		if end = a.ForceMigration(now); end == 0 {
			return fmt.Errorf("nothing to migrate at %v", now)
		}
		return nil
	})
	c.step(t, fmt.Sprintf("advance to %v", end), nil, func() error { a.Advance(end); return nil })
}

// stepAgent routes priority 1 and priority ≥ 1000 to the main table
// unguarded, so a scenario places its main rules directly.
func stepAgent(t *testing.T, cfg core.Config) *core.Agent {
	t.Helper()
	if cfg.Guarantee == 0 {
		cfg.Guarantee = 5 * time.Millisecond
	}
	cfg.DisableRateLimit = true
	cfg.DisableLowPriorityBypass = true
	cfg.Predicate = func(r classifier.Rule) bool { return r.Priority > 1 && r.Priority < 1000 }
	a, err := core.New(tcam.NewSwitch("step", tcam.Pica8P3290), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestWritesAreStepwiseAtomic(t *testing.T) {
	// The floor sits in the main table below everything: a hole falls
	// through to it.
	floor := srcDstRule(1, "0.0.0.0/0", "0.0.0.0/0", 1, 9)
	r := func(id classifier.RuleID, dst string, prio int32) classifier.Rule {
		return srcDstRule(id, dst, "0.0.0.0/0", prio, int(id))
	}
	for _, tc := range []struct {
		name string
		cfg  core.Config
		run  func(t *testing.T, a *core.Agent, c *stepCheck)
	}{{
		// Rule 2 is cut around main rule 3 into eight fragments.
		name: "insert re-cut",
		run: func(t *testing.T, a *core.Agent, c *stepCheck) {
			c.insert(t, a, 0, r(2, "10.0.0.0/8", 10))
			c.insert(t, a, 0, r(3, "10.0.0.0/16", 2000))
		},
	}, {
		// Deleting rule 3 gives rule 2 the /16 back: a full re-cut.
		name: "delete re-cut",
		run: func(t *testing.T, a *core.Agent, c *stepCheck) {
			c.insert(t, a, 0, r(3, "10.0.0.0/16", 2000))
			c.insert(t, a, 0, r(2, "10.0.0.0/8", 10))
			c.delete(t, a, 0, 3)
		},
	}, {
		// Rule 4 still covers what rule 3 leaves: rule 2 keeps its fragments.
		name: "kept un-partition",
		run: func(t *testing.T, a *core.Agent, c *stepCheck) {
			c.insert(t, a, 0, r(3, "10.0.0.0/16", 2000))
			c.insert(t, a, 0, r(4, "10.0.0.0/15", 1500))
			c.insert(t, a, 0, r(2, "10.0.0.0/8", 10))
			c.delete(t, a, 0, 3)
		},
	}, {
		// Rule 2 migrates as its fragments; deleting rule 3 collapses them.
		name: "merge-off collapse",
		cfg:  core.Config{DisableMergeOptimization: true},
		run: func(t *testing.T, a *core.Agent, c *stepCheck) {
			c.insert(t, a, 0, r(3, "10.0.0.0/16", 2000))
			c.insert(t, a, 0, r(2, "10.0.0.0/8", 10))
			c.migrate(t, a, time.Millisecond)
			c.delete(t, a, time.Second, 3)
		},
	}, {
		name: "merged migration",
		run: func(t *testing.T, a *core.Agent, c *stepCheck) {
			c.insert(t, a, 0, r(3, "10.0.0.0/16", 2000))
			c.insert(t, a, 0, r(2, "10.0.0.0/8", 10))
			c.insert(t, a, 0, r(4, "10.1.0.0/16", 20))
			c.migrate(t, a, time.Millisecond)
		},
	}, {
		name: "fragment migration",
		cfg:  core.Config{DisableMergeOptimization: true},
		run: func(t *testing.T, a *core.Agent, c *stepCheck) {
			c.insert(t, a, 0, r(3, "10.0.0.0/16", 2000))
			c.insert(t, a, 0, r(2, "10.0.0.0/8", 10))
			c.insert(t, a, 0, r(4, "10.1.0.0/16", 20))
			c.migrate(t, a, time.Millisecond)
		},
	}, {
		// Rule 2 arrives uncut while rule 3, which beats it, migrates: it must
		// be cut clear of rule 3 before rule 3's shadow copy leaves.
		name: "arrival during a migration",
		run: func(t *testing.T, a *core.Agent, c *stepCheck) {
			c.insert(t, a, 0, r(3, "10.0.0.0/16", 20))
			var end time.Duration
			c.step(t, "migration", nil, func() error { end = a.ForceMigration(time.Millisecond); return nil })
			c.insert(t, a, time.Millisecond, r(2, "10.0.0.0/8", 10))
			c.step(t, "advance", nil, func() error { a.Advance(end); return nil })
		},
	}, {
		// Cut into eight, rule 2 exceeds MaxPartitions and moves to the main
		// table, where it beats rule 4 in the shadow table.
		name: "shadow to main fallback",
		cfg:  core.Config{MaxPartitions: 4},
		run: func(t *testing.T, a *core.Agent, c *stepCheck) {
			c.insert(t, a, 0, r(2, "10.0.0.0/8", 10))
			c.insert(t, a, 0, r(4, "10.1.0.0/24", 5))
			c.insert(t, a, 0, r(3, "10.0.0.0/16", 2000))
			if got := a.ShadowOccupancy(); got != 0 {
				t.Fatalf("scenario drifted: %d shadow entries left, want rule 2 moved and rule 4 redundant", got)
			}
		},
	}, {
		name: "MicroBench stream",
		run: func(t *testing.T, a *core.Agent, c *stepCheck) {
			stream := workload.MicroBench(rand.New(rand.NewSource(7)), workload.MicroBenchConfig{
				Rules: 200, RatePerSec: 1000, OverlapFrac: 0.5, MaxPriority: 64, FirstID: 10,
			})
			replayStepwise(t, a, c, stream)
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			a := stepAgent(t, tc.cfg)
			c := newStepCheck(a)
			c.insert(t, a, 0, floor)
			tc.run(t, a, c)
			if c.hole != "" {
				t.Fatalf("a packet resolved as neither the table before nor the one after a flow-mod, %s", c.hole)
			}
			if c.checks < 3 {
				t.Fatalf("only %d checks ran", c.checks)
			}
		})
	}

	// The checker sees a hole when there is one: the naive migration empties
	// the shadow table before the main table holds the rules.
	a := stepAgent(t, core.Config{NaiveMigration: true})
	c := newStepCheck(a)
	c.insert(t, a, 0, floor)
	c.insert(t, a, 0, r(2, "10.0.0.0/8", 10))
	c.insert(t, a, 0, r(3, "10.0.0.0/16", 2000))
	c.migrate(t, a, time.Millisecond)
	if c.hole == "" {
		t.Fatal("the naive migration's hole went unseen")
	}
}

// replayStepwise replays a MicroBench stream the way pinEpoch does — each
// insert at its virtual time, the rule a quarter of the stream back deleted
// after it, a Rule Manager tick every 10 ms — with the checker on.
func replayStepwise(t *testing.T, a *core.Agent, c *stepCheck, stream []workload.TimedRule) {
	t.Helper()
	for i := range stream {
		stream[i].Rule.Action.Port = int(stream[i].Rule.ID)
	}
	nextTick := pinTick
	lag := len(stream) / 4
	var now time.Duration
	for i, tr := range stream {
		now = tr.At
		for ; nextTick <= now; nextTick += pinTick {
			c.step(t, fmt.Sprintf("tick at %v", nextTick), nil, func() error {
				if end := a.Tick(nextTick); end != 0 {
					a.Advance(end)
				}
				return nil
			})
		}
		c.insert(t, a, now, tr.Rule)
		if i >= lag {
			c.delete(t, a, now, stream[i-lag].Rule.ID)
		}
	}
}

// FuzzStepwiseAtomicity sends small random insert / delete / modify / tick
// streams through the step-wise checker. The first byte picks the
// configuration: bit 0 fragment migration, bit 1 a MaxPartitions low enough to
// force the shadow-to-main fallback, bit 2 batches (flow-mods go in as one
// ApplyBatch up to the next op 7), bit 3 src × dst rules (each op carries a
// fourth byte, the src prefix of the rule it inserts, so a cut meets winners
// whose src does not contain the rule's). Each following op is three bytes,
// four with src. A tick starts a migration and lets it complete under the ops
// that follow; in batch mode op 7 ends the batch first, and ticks unless bit
// 1 of its last byte is set. The 30 ms guarantee carves a 689-entry shadow
// table, which 21 rules of at most 16 fragments cannot fill even with a
// re-cut's old and new entries in it at once: a table that full is the one
// case where a write deletes first, and TestWriteOrder covers it.
func FuzzStepwiseAtomicity(f *testing.F) {
	f.Add([]byte{0, 0, 8, 4, 0, 20, 6, 3, 0, 16, 4, 9, 0})
	f.Add([]byte{1, 0, 8, 4, 3, 0, 16, 7, 1, 0, 0, 12, 3, 4, 0, 0, 6, 1, 1})
	f.Add([]byte{2, 0, 8, 4, 0, 40, 2, 3, 0, 16, 7, 1, 0, 0, 9, 6, 5, 0, 1})
	f.Add([]byte{0, 0, 8, 9, 7, 1, 2, 0, 200, 5, 3, 8, 16, 4, 0, 0, 6, 2, 3, 7, 0, 0})
	// Batches: a re-cut, an un-partition and a modify inside one ApplyBatch,
	// a bare boundary, a forced migration between batches.
	f.Add([]byte{4, 0, 0, 0, 3, 0, 8, 8, 1, 16, 4, 1, 0, 7, 0, 0, 0, 2, 4, 3, 2, 12, 6, 0, 1, 7, 0, 2, 7, 0, 1, 5, 0, 0, 0, 3, 9, 7, 0, 2})
	// Src × dst: a main rule with a /1 src cuts a shadow rule with a /0 one,
	// then leaves again.
	f.Add([]byte{8, 0, 0, 0, 0, 3, 0, 8, 1, 0, 0, 16, 2, 3, 0, 4, 129, 4, 1, 0, 0, 7, 0, 1, 0, 0, 1, 8, 1, 6, 0, 1, 0, 5, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			return
		}
		cfg := core.Config{Guarantee: 30 * time.Millisecond, DisableMergeOptimization: data[0]&1 != 0}
		if data[0]&2 != 0 {
			cfg.MaxPartitions = 2
		}
		batched, stride := data[0]&4 != 0, 3
		if data[0]&8 != 0 {
			stride = 4
		}
		a := stepAgent(t, cfg)
		c := newStepCheck(a)
		c.insert(t, a, 0, srcDstRule(1, "0.0.0.0/0", "0.0.0.0/0", 1, 1))
		live := []classifier.RuleID{}
		next := classifier.RuleID(2)
		var now time.Duration
		// cur is the logical table after the flow-mods so far, batched ones
		// included.
		cur := c.logical
		var batch []core.BatchOp
		do := func(op core.BatchOp) {
			if batched {
				batch = append(batch, op)
				states := flowMod(cur, op)
				cur = states[len(states)-1]
				return
			}
			switch op.Kind {
			case core.BatchInsert:
				c.insert(t, a, now, op.Rule)
			case core.BatchDelete:
				c.delete(t, a, now, op.Rule.ID)
			default:
				c.modify(t, a, now, op.Rule)
			}
			cur = c.logical
		}
		flush := func() {
			if len(batch) > 0 {
				c.batch(t, a, now, batch)
				batch = nil
			}
		}
		for data = data[1:]; len(data) >= stride; data = data[stride:] {
			op, x, y := data[0], data[1], data[2]
			now += time.Duration(y%4+1) * time.Millisecond
			pick := func() int { return int(x) % len(live) }
			switch op % 8 {
			case 0, 1, 2, 3:
				// Nested prefixes under 10/8; op 3 goes to the main table.
				plen := 8 + int(y)%17
				addr := uint32(0x0A000000) | uint32(x)<<16 | uint32(y)<<8
				prio := int32(2 + int(op/8)%6)
				if op%8 == 3 {
					prio = 1000 + int32(op/8)
				}
				r := classifier.Rule{
					ID:       next,
					Match:    classifier.DstMatch(classifier.NewPrefix(addr, uint8(plen))),
					Priority: prio,
					Action:   classifier.Action{Type: classifier.ActionForward, Port: int(next)},
				}
				if stride == 4 {
					// A /0, /1 or /2 src: nested, disjoint or equal.
					r.Match.Src = classifier.NewPrefix(uint32(data[3])<<24, data[3]%3)
				}
				next++
				do(core.BatchOp{Kind: core.BatchInsert, Rule: r})
				live = append(live, r.ID)
			case 4, 5:
				if len(live) > 0 {
					i := pick()
					do(core.BatchOp{Kind: core.BatchDelete, Rule: classifier.Rule{ID: live[i]}})
					live = slices.Delete(live, i, i+1)
				}
			case 6:
				if len(live) > 0 {
					id := live[pick()]
					r := cur[slices.IndexFunc(cur, func(r classifier.Rule) bool { return r.ID == id })]
					r.Action.Port += 1 << 20
					if y&1 != 0 && r.Priority < 1000 {
						r.Priority = 2 + int32(y/2)%6
					}
					do(core.BatchOp{Kind: core.BatchModify, Rule: r})
				}
			case 7:
				flush()
				if batched && y&2 != 0 {
					continue
				}
				c.step(t, fmt.Sprintf("tick at %v", now), nil, func() error {
					if y&1 != 0 {
						a.ForceMigration(now)
					} else {
						a.Tick(now)
					}
					return nil
				})
			}
		}
		flush()
		c.step(t, "the last advance", nil, func() error { a.Advance(now + time.Second); return nil })
		if c.hole != "" {
			t.Fatalf("a packet resolved as neither the table before nor the one after a flow-mod, %s", c.hole)
		}
	})
}
