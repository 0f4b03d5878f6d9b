package tcam

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hermes/internal/classifier"
)

func TestBuiltinProfilesValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if p, ok := ProfileByName("Pica8 P-3290"); !ok || p != Pica8P3290 {
		t.Error("ProfileByName Pica8")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("ProfileByName must fail on unknown name")
	}
}

// TestCalibrationReproducesTable1 checks that the latency model evaluated
// at the calibration occupancies reproduces the paper's Table 1 update
// rates exactly (the model is interpolated through those points).
func TestCalibrationReproducesTable1(t *testing.T) {
	table1 := map[string]map[int]float64{
		"Pica8 P-3290": {50: 1266, 200: 114, 1000: 23, 2000: 12},
		"Dell 8132F":   {50: 970, 250: 494, 500: 42, 750: 29},
	}
	for name, points := range table1 {
		p, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		for occ, want := range points {
			got := p.UpdatesPerSec(occ)
			if math.Abs(got-want)/want > 0.01 {
				t.Errorf("%s at occupancy %d: %.1f updates/s, want %.1f", name, occ, got, want)
			}
		}
	}
}

func TestInsertLatencyMonotone(t *testing.T) {
	for _, p := range Profiles() {
		prev := time.Duration(0)
		for shifts := 0; shifts <= p.Capacity; shifts += 13 {
			l := p.InsertLatency(shifts)
			if l < prev {
				t.Errorf("%s: latency not monotone at %d shifts (%v < %v)", p.Name, shifts, l, prev)
			}
			if l < p.FloorLatency {
				t.Errorf("%s: latency below floor at %d shifts", p.Name, shifts)
			}
			prev = l
		}
	}
}

func TestInsertLatencyExtrapolation(t *testing.T) {
	p := Pica8P3290
	last := p.Calibration[len(p.Calibration)-1]
	lLast := p.InsertLatency(last.Occupancy)
	lBeyond := p.InsertLatency(last.Occupancy + 500)
	if lBeyond <= lLast {
		t.Errorf("extrapolated latency %v not greater than last calibrated %v", lBeyond, lLast)
	}
}

func TestMaxShiftsWithin(t *testing.T) {
	p := Pica8P3290
	for _, bound := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond} {
		n := p.MaxShiftsWithin(bound)
		if n <= 0 {
			t.Fatalf("MaxShiftsWithin(%v) = %d", bound, n)
		}
		if got := p.InsertLatency(n); got > bound {
			t.Errorf("InsertLatency(%d) = %v exceeds bound %v", n, got, bound)
		}
		if got := p.InsertLatency(n + 1); got <= bound {
			t.Errorf("InsertLatency(%d+1) = %v within bound %v: n not maximal", n, got, bound)
		}
	}
	// 5ms on the Pica8 should allow on the order of 100+ entries, and the
	// resulting shadow overhead should be under 5% of the TCAM (the
	// headline claim of the paper).
	n := p.MaxShiftsWithin(5 * time.Millisecond)
	overhead := float64(n) / float64(p.Capacity)
	if overhead >= 0.05 {
		t.Errorf("5ms shadow overhead on Pica8 = %.1f%%, want <5%%", overhead*100)
	}
	if n < 50 {
		t.Errorf("5ms shadow size = %d, implausibly small", n)
	}
	// A bound below the floor admits nothing.
	if got := p.MaxShiftsWithin(p.FloorLatency / 2); got != 0 {
		t.Errorf("sub-floor bound: MaxShiftsWithin = %d, want 0", got)
	}
}

func rule(id classifier.RuleID, dst string, prio int32) classifier.Rule {
	return classifier.Rule{
		ID:       id,
		Match:    classifier.DstMatch(classifier.MustParsePrefix(dst)),
		Priority: prio,
		Action:   classifier.Action{Type: classifier.ActionForward, Port: int(id)},
	}
}

func TestTableInsertOrdering(t *testing.T) {
	tb := NewTable("t", 100, Pica8P3290)
	mustInsert := func(r classifier.Rule) time.Duration {
		d, err := tb.Insert(r)
		if err != nil {
			t.Fatalf("Insert(%v): %v", r, err)
		}
		return d
	}
	mustInsert(rule(1, "10.0.0.0/8", 10))
	mustInsert(rule(2, "20.0.0.0/8", 30))
	mustInsert(rule(3, "30.0.0.0/8", 20))
	mustInsert(rule(4, "40.0.0.0/8", 20)) // ties go below rule 3

	got := tb.Rules()
	wantOrder := []classifier.RuleID{2, 3, 4, 1}
	for i, id := range wantOrder {
		if got[i].ID != id {
			t.Fatalf("order = %v, want %v", got, wantOrder)
		}
	}
}

// TestLowestPriorityMatchesInsertPosition: "a plain insert at p shifts
// nothing" and "the table is empty or its lowest priority is ≥ p" agree, on
// random tables with equal-priority ties, ranked inserts and deletes.
func TestLowestPriorityMatchesInsertPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		tb := NewTable("t", 600, Pica8P3290)
		check := func() {
			t.Helper()
			lowest, ok := tb.LowestPriority()
			if ok != (tb.Occupancy() > 0) {
				t.Fatalf("round %d: LowestPriority ok=%v with %d entries", round, ok, tb.Occupancy())
			}
			for _, r := range tb.Rules() {
				if ok && r.Priority < lowest {
					t.Fatalf("round %d: LowestPriority = %d, but %v is installed", round, lowest, r)
				}
			}
			for p := int32(-1); p <= 9; p++ {
				_, shifts := tb.InsertPosition(p)
				if (shifts == 0) != (!ok || lowest >= p) {
					t.Fatalf("round %d priority %d: InsertPosition shifts %d, LowestPriority %d,%v", round, p, shifts, lowest, ok)
				}
			}
		}
		check()
		n := rng.Intn(500)
		for i := 0; i < n; i++ {
			r := rule(classifier.RuleID(i+1), "10.0.0.0/8", int32(rng.Intn(8)))
			var err error
			if rng.Intn(2) == 0 {
				_, err = tb.Insert(r)
			} else {
				_, err = tb.InsertRanked(r, uint64(rng.Intn(4)))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		check()
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				tb.Delete(classifier.RuleID(i + 1))
			}
		}
		check()
	}
}

func TestTableInsertShiftCost(t *testing.T) {
	tb := NewTable("t", 1000, Pica8P3290)
	// Fill with 200 rules of priority 100.
	for i := 0; i < 200; i++ {
		if _, err := tb.Insert(rule(classifier.RuleID(i+1), "10.0.0.0/8", 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Appending the lowest-priority rule costs only the floor.
	low, err := tb.Insert(rule(1000, "20.0.0.0/8", 1))
	if err != nil {
		t.Fatal(err)
	}
	if low != Pica8P3290.FloorLatency {
		t.Errorf("lowest-priority insert cost %v, want floor %v", low, Pica8P3290.FloorLatency)
	}
	// Inserting at the top shifts all 201 entries.
	top, err := tb.Insert(rule(1001, "30.0.0.0/8", 1000))
	if err != nil {
		t.Fatal(err)
	}
	want := Pica8P3290.InsertLatency(201)
	if top != want {
		t.Errorf("top insert cost %v, want %v", top, want)
	}
	if top < 20*low {
		t.Errorf("top insert (%v) should dwarf floor insert (%v)", top, low)
	}
}

func TestTableCapacityAndDuplicates(t *testing.T) {
	tb := NewTable("t", 2, Pica8P3290)
	if _, err := tb.Insert(rule(1, "10.0.0.0/8", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(rule(1, "10.0.0.0/8", 1)); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate insert err = %v", err)
	}
	if _, err := tb.Insert(rule(2, "20.0.0.0/8", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(rule(3, "30.0.0.0/8", 1)); !errors.Is(err, ErrTableFull) {
		t.Errorf("overflow insert err = %v", err)
	}
	if tb.Free() != 0 || tb.Occupancy() != 2 || tb.Capacity() != 2 {
		t.Error("occupancy accounting")
	}
}

func TestTableDelete(t *testing.T) {
	tb := NewTable("t", 10, Dell8132F)
	tb.Insert(rule(1, "10.0.0.0/8", 5))
	tb.Insert(rule(2, "20.0.0.0/8", 3))
	d, ok := tb.Delete(1)
	if !ok || d != Dell8132F.DeleteLatency {
		t.Errorf("Delete = %v, %v", d, ok)
	}
	if tb.Contains(1) || !tb.Contains(2) {
		t.Error("delete bookkeeping")
	}
	if _, ok := tb.Delete(1); ok {
		t.Error("double delete succeeded")
	}
	if _, ok := tb.Get(1); ok {
		t.Error("Get after delete")
	}
}

func TestTableModify(t *testing.T) {
	tb := NewTable("t", 10, HP5406zl)
	tb.Insert(rule(1, "10.0.0.0/8", 5))
	d, ok := tb.ModifyAction(1, classifier.Action{Type: classifier.ActionDrop})
	if !ok || d != HP5406zl.ModifyLatency {
		t.Errorf("ModifyAction = %v, %v", d, ok)
	}
	if r, _ := tb.Get(1); r.Action.Type != classifier.ActionDrop {
		t.Error("action not modified")
	}
	if _, ok := tb.ModifyAction(42, classifier.Action{}); ok {
		t.Error("modify of absent rule succeeded")
	}
}

func TestTableLookupFirstMatch(t *testing.T) {
	tb := NewTable("t", 10, Pica8P3290)
	tb.Insert(rule(1, "192.168.1.0/24", 10)) // lower priority, inserted first
	tb.Insert(rule(2, "192.168.1.0/26", 20)) // higher priority
	addr := classifier.MustParsePrefix("192.168.1.5/32").Addr
	r, ok := tb.Lookup(addr, 0)
	if !ok || r.ID != 2 {
		t.Errorf("Lookup = %v, want rule 2", r)
	}
	addr200 := classifier.MustParsePrefix("192.168.1.200/32").Addr
	r, ok = tb.Lookup(addr200, 0)
	if !ok || r.ID != 1 {
		t.Errorf("Lookup .200 = %v, want rule 1", r)
	}
	if _, ok := tb.Lookup(0x01010101, 0); ok {
		t.Error("lookup of unmatched address succeeded")
	}
}

func TestTableReset(t *testing.T) {
	tb := NewTable("t", 10, Pica8P3290)
	for i := 0; i < 5; i++ {
		tb.Insert(rule(classifier.RuleID(i+1), "10.0.0.0/8", int32(i)))
	}
	cost := tb.Reset()
	if cost != 5*Pica8P3290.DeleteLatency {
		t.Errorf("Reset cost = %v", cost)
	}
	if tb.Occupancy() != 0 || tb.Contains(1) {
		t.Error("Reset did not empty table")
	}
}

func TestTableStats(t *testing.T) {
	tb := NewTable("t", 10, Pica8P3290)
	tb.Insert(rule(1, "10.0.0.0/8", 1))
	tb.Insert(rule(2, "20.0.0.0/8", 2)) // shifts rule 1
	tb.Delete(1)
	tb.ModifyAction(2, classifier.Action{Type: classifier.ActionDrop})
	s := tb.Stats()
	if s.Inserts != 2 || s.Deletes != 1 || s.Mods != 1 || s.Shifts != 1 {
		t.Errorf("Stats = %+v", s)
	}
}

// TestTableOrderInvariant property: after any sequence of inserts/deletes
// the entry list is sorted by descending priority with stable ties.
func TestTableOrderInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := NewTable("t", 64, Pica8P3290)
		var ids []classifier.RuleID
		for op := 0; op < 100; op++ {
			if r.Intn(3) != 0 || len(ids) == 0 {
				id := classifier.RuleID(op + 1)
				_, err := tb.Insert(rule(id, "10.0.0.0/8", int32(r.Intn(10))))
				if err == nil {
					ids = append(ids, id)
				}
			} else {
				i := r.Intn(len(ids))
				tb.Delete(ids[i])
				ids = append(ids[:i], ids[i+1:]...)
			}
			rules := tb.Rules()
			for i := 1; i < len(rules); i++ {
				if rules[i-1].Priority < rules[i].Priority {
					return false
				}
			}
			if len(rules) != len(ids) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSwitchCarveAndLookup(t *testing.T) {
	sw := NewSwitch("s1", Pica8P3290)
	if sw.Table() == nil {
		t.Fatal("monolithic table missing")
	}
	shadow, main, err := sw.Carve(128)
	if err != nil {
		t.Fatal(err)
	}
	if shadow.Capacity() != 128 || main.Capacity() != Pica8P3290.Capacity-128 {
		t.Errorf("capacities = %d, %d", shadow.Capacity(), main.Capacity())
	}
	// Shadow-first lookup.
	main.Insert(rule(1, "192.168.1.0/24", 10))
	shadow.Insert(rule(2, "192.168.1.0/26", 5)) // lower priority but shadow wins on its region
	addr := classifier.MustParsePrefix("192.168.1.5/32").Addr
	r, ok := sw.Lookup(addr, 0)
	if !ok || r.ID != 2 {
		t.Errorf("shadow-first lookup = %v, want rule 2", r)
	}
	addr200 := classifier.MustParsePrefix("192.168.1.200/32").Addr
	r, ok = sw.Lookup(addr200, 0)
	if !ok || r.ID != 1 {
		t.Errorf("fallthrough lookup = %v, want rule 1", r)
	}
	// Carve bounds.
	if _, _, err := sw.Carve(0); err == nil {
		t.Error("Carve(0) must fail")
	}
	if _, _, err := sw.Carve(Pica8P3290.Capacity); err == nil {
		t.Error("Carve(full capacity) must fail")
	}
	// Table() panics on a carved switch.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Table() on carved switch must panic")
			}
		}()
		sw.Table()
	}()
	// Uncarve restores a monolithic table.
	tb := sw.Uncarve()
	if tb.Capacity() != Pica8P3290.Capacity {
		t.Error("Uncarve capacity")
	}
}

func TestSwitchSubmitQueueing(t *testing.T) {
	sw := NewSwitch("s1", Pica8P3290)
	c1 := sw.Submit(0, 10*time.Millisecond)
	if c1 != 10*time.Millisecond {
		t.Errorf("c1 = %v", c1)
	}
	// Second op arrives while the first is in service.
	c2 := sw.Submit(time.Millisecond, 5*time.Millisecond)
	if c2 != 15*time.Millisecond {
		t.Errorf("c2 = %v, want 15ms (queued)", c2)
	}
	// Third op arrives after the queue drains.
	c3 := sw.Submit(time.Second, time.Millisecond)
	if c3 != time.Second+time.Millisecond {
		t.Errorf("c3 = %v", c3)
	}
	if sw.BusyUntil() != c3 {
		t.Errorf("BusyUntil = %v", sw.BusyUntil())
	}
	sw.ResetClock()
	if sw.BusyUntil() != 0 {
		t.Error("ResetClock")
	}
}
