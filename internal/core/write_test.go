package core

// The write primitive's edges: what it keeps, the order of its ops, and the
// one delete-first exception; and a re-cut that strands a live rule now asks
// for the Reconcile that reinstalls it.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/tcam"
)

func TestWriteOrder(t *testing.T) {
	rule := func(id classifier.RuleID, dst string) classifier.Rule { return dstRule(id, dst, 10, 7) }
	f1, f2 := rule(101, "10.0.0.0/9"), rule(102, "10.128.0.0/9")
	other := dstRule(5, "20.0.0.0/8", 50, 5)
	for _, tc := range []struct {
		name string
		cap  int
		// installed is the table before the write; have and want the rule's
		// record and target.
		installed, have, want []classifier.Rule
		ops                   []string // the table's ops, in order
		ins, del              int
		hold                  []classifier.RuleID // the rule's entries after the write
	}{{
		name: "nothing changed", cap: 8,
		installed: []classifier.Rule{f1, f2}, have: []classifier.Rule{f1, f2},
		want: []classifier.Rule{rule(201, "10.128.0.0/9"), rule(202, "10.0.0.0/9")},
		hold: []classifier.RuleID{102, 101},
	}, {
		// A fresh fragment equal to a live one takes over its ID; the other
		// goes in before the stale one leaves.
		name: "insert before delete", cap: 8,
		installed: []classifier.Rule{f1, f2}, have: []classifier.Rule{f1, f2},
		want: []classifier.Rule{rule(201, "10.0.0.0/9"), rule(202, "10.128.0.0/10")},
		ops:  []string{"insert 202", "delete 102"}, ins: 1, del: 1,
		hold: []classifier.RuleID{101, 202},
	}, {
		// An uncut rule re-cut uncut after a truncation removed its entry: the
		// entry goes back under the same ID and is not deleted after.
		name: "same ID, entry lost", cap: 8,
		have: []classifier.Rule{rule(1, "10.0.0.0/8")}, want: []classifier.Rule{rule(1, "10.0.0.0/8")},
		ops: []string{"insert 1"}, ins: 1,
		hold: []classifier.RuleID{1},
	}, {
		// The entry under the wanted ID drifted: it must leave first, since a
		// table holds one entry per ID.
		name: "same ID, content drifted", cap: 8,
		installed: []classifier.Rule{dstRule(1, "10.0.0.0/8", 10, 99)},
		have:      []classifier.Rule{rule(1, "10.0.0.0/8")}, want: []classifier.Rule{rule(1, "10.0.0.0/8")},
		ops: []string{"delete 1", "insert 1"}, ins: 1, del: 1,
		hold: []classifier.RuleID{1},
	}, {
		// Two free slots short of old and new at once, one past with the old
		// gone: the stale entries leave first.
		name: "no room: delete first", cap: 3,
		installed: []classifier.Rule{other, f1, f2}, have: []classifier.Rule{f1, f2},
		want: []classifier.Rule{rule(201, "10.0.0.0/10"), rule(202, "10.128.0.0/10")},
		ops:  []string{"delete 101", "delete 102", "insert 201", "insert 202"}, ins: 2, del: 2,
		hold: []classifier.RuleID{201, 202},
	}, {
		name: "room: insert first", cap: 5,
		installed: []classifier.Rule{other, f1, f2}, have: []classifier.Rule{f1, f2},
		want: []classifier.Rule{rule(201, "10.0.0.0/10"), rule(202, "10.128.0.0/10")},
		ops:  []string{"insert 201", "insert 202", "delete 101", "delete 102"}, ins: 2, del: 2,
		hold: []classifier.RuleID{201, 202},
	}, {
		name: "want nothing", cap: 8,
		installed: []classifier.Rule{other, f1, f2}, have: []classifier.Rule{f1, f2},
		ops: []string{"delete 101", "delete 102"}, del: 2,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			sw := tcam.NewSwitch("w", tcam.Pica8P3290)
			tbl := tcam.NewTable("w/t", tc.cap, sw.Profile())
			a := &Agent{sw: sw, shadow: tbl}
			for _, r := range tc.installed {
				if _, err := tbl.InsertRanked(r, 1); err != nil {
					t.Fatal(err)
				}
			}
			var ops []string
			tbl.SetFaultHook(func(op tcam.Op, id classifier.RuleID) tcam.OpFault {
				ops = append(ops, fmt.Sprintf("%v %d", op, id))
				return tcam.OpFault{}
			})
			want := slices.Clone(tc.want)
			w := a.write(0, tbl, &ruleState{seq: 1}, tc.have, want)
			if !slices.Equal(ops, tc.ops) || w.ins != tc.ins || w.del != tc.del || w.failed != 0 {
				t.Errorf("ops %q (%d in, %d out, %d refused), want %q (%d in, %d out)",
					ops, w.ins, w.del, w.failed, tc.ops, tc.ins, tc.del)
			}
			var held []classifier.RuleID
			for _, r := range want {
				held = append(held, r.ID)
				if got, ok := tbl.Get(r.ID); !ok || got != r {
					t.Errorf("entry %d is %v, %v; want %v", r.ID, got, ok, r)
				}
			}
			if !slices.Equal(held, tc.hold) {
				t.Errorf("the rule's entries are %v, want %v", held, tc.hold)
			}
			if n := tbl.Occupancy(); n != len(tc.installed)-len(tc.have)+len(tc.want) && len(tc.installed) > 0 {
				t.Errorf("%d entries installed after the write", n)
			}
		})
	}
}

// TestStrandedRecutAsksForReconcile: a re-cut whose fallback finds the main
// table full leaves the rule in neither table. The agent must say so, and
// Reconcile must install the rule once there is room.
func TestStrandedRecutAsksForReconcile(t *testing.T) {
	a, err := New(tcam.NewSwitch("full", tcam.Pica8P3290), Config{
		Guarantee:                5 * time.Millisecond,
		DisableRateLimit:         true,
		DisableLowPriorityBypass: true,
		MaxPartitions:            4,
		TrackLogical:             true,
		Predicate:                func(r classifier.Rule) bool { return r.Priority < 1000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, a, 0, dstRule(2, "10.0.0.0/8", 10, 2))
	for id := classifier.RuleID(100); a.main.Free() > 1; id++ {
		r := dstRule(id, "20.0.0.0/32", 2000, int(id))
		r.Match.Dst = classifier.NewPrefix(0x14000000|uint32(id), 32)
		mustInsert(t, a, 0, r)
	}
	// The last slot goes to a rule that cuts rule 2 into eight, past
	// MaxPartitions: its fallback finds the main table full.
	mustInsert(t, a, 0, dstRule(3, "10.0.0.0/16", 2000, 3))
	if a.ShadowOccupancy() != 0 || !a.NeedsReconcile() {
		t.Fatalf("rule 2 stranded with %d shadow entries, NeedsReconcile %v; want none and true",
			a.ShadowOccupancy(), a.NeedsReconcile())
	}
	if _, err := a.Delete(time.Second, 100); err != nil {
		t.Fatal(err)
	}
	if rep := a.Reconcile(2 * time.Second); rep.ShadowRepaired != 1 || rep.Unrepaired != 0 {
		t.Fatalf("Reconcile: %v, want rule 2 repaired", rep)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for _, pkt := range []uint32{0x0A010000, 0x0A000001, 0x0B000000} {
		got, ok := a.Lookup(pkt, 0)
		want, wok := a.LogicalLookup(pkt, 0)
		if ok != wok || got.Action != want.Action {
			t.Errorf("%08x resolves to %v, the logical table to %v", pkt, got, want)
		}
	}
}
