package core

// The write primitive's edges: what it keeps, the order of its ops, the one
// delete-first exception and the order in which commit issues a plan across
// rules and tables; and a re-cut that strands a live rule now asks for the
// Reconcile that reinstalls it.

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
			a := &Agent{sw: sw, shadow: tbl, main: tcam.NewTable("w/m", 8, sw.Profile())}
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
			st := &ruleState{seq: 1}
			a.write(0, tbl, laneGuaranteed, st, tc.have, want)
			w := a.commit(0, st, true)
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
	t.Run("commit", testCommitOrder)
}

// testCommitOrder: a plan's writes leave in commit's order whatever order
// they were planned in. First a re-cut's stale entry and a migration copy
// alone: lowest precedence first, only the re-cut delete charged, to the
// guaranteed lane, the copy through the bulk interface, charged to no lane.
// Then a plan across both tables: main inserts, shadow inserts highest
// precedence first, shadow deletes lowest precedence first, main deletes.
func testCommitOrder(t *testing.T) {
	sw := tcam.NewSwitch("w", tcam.Pica8P3290)
	shadow, main := tcam.NewTable("w/s", 8, sw.Profile()), tcam.NewTable("w/m", 8, sw.Profile())
	a := &Agent{sw: sw, shadow: shadow, main: main}
	low := &ruleState{original: dstRule(1, "10.0.0.0/8", 10, 1), seq: 1}
	high := &ruleState{original: dstRule(2, "10.0.0.0/16", 20, 2), seq: 2}
	stale, copied := dstRule(101, "10.0.0.0/9", 10, 1), dstRule(2, "10.0.0.0/16", 20, 2)
	var ops []string
	install := func(tbl *tcam.Table, rules ...classifier.Rule) {
		t.Helper()
		tbl.SetFaultHook(nil)
		for _, r := range rules {
			if _, err := tbl.InsertRanked(r, 1); err != nil {
				t.Fatal(err)
			}
		}
		ops = nil
		tbl.SetFaultHook(func(op tcam.Op, id classifier.RuleID) tcam.OpFault {
			ops = append(ops, fmt.Sprintf("%v %s %d", op, tbl.Name(), id))
			return tcam.OpFault{}
		})
	}
	install(shadow, copied, stale)
	a.write(0, shadow, laneBulk, high, []classifier.Rule{copied}, nil)
	a.write(0, shadow, laneGuaranteed, low, []classifier.Rule{stale}, nil)
	if len(ops) != 0 || shadow.Occupancy() != 2 {
		t.Fatalf("planned deletes issued %q and left %d entries; want nothing and 2", ops, shadow.Occupancy())
	}
	a.commit(0, nil, true)
	if want := []string{"delete w/s 101", "delete w/s 2"}; !slices.Equal(ops, want) {
		t.Errorf("commit issued %q, want %q", ops, want)
	}
	if got, want := sw.SubmitGuaranteed(0, 0), sw.Profile().DeleteLatency; got != want {
		t.Errorf("guaranteed lane busy until %v, want one delete's %v", got, want)
	}
	if sw.BusyUntil() != 0 || shadow.Occupancy() != 0 {
		t.Errorf("normal lane busy until %v, %d entries left; want 0 and 0", sw.BusyUntil(), shadow.Occupancy())
	}

	// Both rules re-cut, a main rule leaving and one arriving, planned
	// lowest first and the main insert last.
	leaving := &ruleState{original: dstRule(30, "10.0.0.0/12", 30, 30), seq: 3}
	arriving := &ruleState{original: dstRule(40, "10.0.0.0/14", 40, 40), seq: 4}
	install(main, leaving.original)
	install(shadow, stale, copied)
	a.write(0, main, laneNormal, leaving, leaving.whole(), nil)
	a.write(0, shadow, laneGuaranteed, low, []classifier.Rule{stale}, []classifier.Rule{dstRule(111, "10.128.0.0/9", 10, 1)})
	a.write(0, shadow, laneGuaranteed, high, []classifier.Rule{copied}, []classifier.Rule{dstRule(112, "10.0.0.0/17", 20, 2)})
	a.write(0, main, laneNormal, arriving, nil, arriving.whole())
	if want := []string{"insert w/m 40"}; !slices.Equal(ops, want) {
		t.Fatalf("planning issued %q, want only the main insert %q", ops, want)
	}
	a.commit(0, nil, true)
	want := []string{"insert w/m 40", "insert w/s 112", "insert w/s 111", "delete w/s 101", "delete w/s 2", "delete w/m 30"}
	if !slices.Equal(ops, want) {
		t.Errorf("commit issued %q, want %q", ops, want)
	}
	if shadow.Occupancy() != 2 || main.Occupancy() != 1 {
		t.Errorf("%d shadow and %d main entries left, want 2 and 1", shadow.Occupancy(), main.Occupancy())
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
