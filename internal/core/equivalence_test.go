package core

// Deterministic long-run equivalence check: replays fixed-seed random
// workloads (insert/delete/tick/migrate) and verifies after every operation
// that the carved shadow+main pipeline answers exactly like the reference
// monolithic table. Complements the time-seeded quick.Check variant with
// reproducible coverage.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hermes/internal/classifier"
)

func TestEquivalenceFixedSeeds(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		if !runSeq(t, seed, false) {
			t.Logf("seed %d fails; replaying verbosely", seed)
			runSeq(t, seed, true)
			t.FailNow()
		}
	}
}

func runSeq(t *testing.T, seed int64, verbose bool) bool {
	r := rand.New(rand.NewSource(seed))
	a := newTestAgent(t, Config{DisableRateLimit: true})
	now := time.Duration(0)
	live := []classifier.RuleID{}
	nextID := classifier.RuleID(1)
	log := func(format string, args ...interface{}) {
		if verbose {
			t.Logf(format, args...)
		}
	}
	check := func(op int) bool {
		if err := shadowIndexErr(a); err != nil {
			t.Logf("op %d: %v", op, err)
			return false
		}
		if err := a.CheckPartitions(); err != nil {
			t.Logf("op %d: %v", op, err)
			return false
		}
		rr := rand.New(rand.NewSource(seed*1000 + int64(op)))
		logical := a.LogicalRules()
		for k := 0; k < 300; k++ {
			var dst uint32
			if len(logical) > 0 && rr.Intn(4) != 0 {
				pick := logical[rr.Intn(len(logical))].Match.Dst
				dst = pick.Addr | (rr.Uint32() & ^pick.Mask())
			} else {
				dst = rr.Uint32()
			}
			want, wok := a.LogicalLookup(dst, 0)
			got, gok := a.Lookup(dst, 0)
			if wok != gok || (wok && got.Action != want.Action) {
				if verbose {
					t.Logf("op %d: pkt %08x got %v(%v) want %v(%v)", op, dst, got, gok, want, wok)
					t.Logf("shadow rules: %v", a.shadow.Rules())
					t.Logf("main rules: %v", a.main.Rules())
					t.Logf("logical: %v", logical)
					for id, st := range a.rules {
						t.Logf("state[%d]: seq=%d place=%d parts=%v", id, st.seq, st.place, st.parts)
					}
				}
				return false
			}
		}
		return true
	}
	for op := 0; op < 120; op++ {
		now += time.Duration(r.Intn(8)+1) * time.Millisecond
		switch x := r.Intn(10); {
		case x < 6:
			rule := classifier.Rule{
				ID:       nextID,
				Match:    classifier.DstMatch(classifier.NewPrefix(0xC0A80000|(r.Uint32()&0xFFFF), uint8(16+r.Intn(17)))),
				Priority: int32(r.Intn(50)),
				Action:   classifier.Action{Type: classifier.ActionForward, Port: int(nextID)},
			}
			res, err := a.Insert(now, rule)
			if err != nil {
				t.Logf("insert: %v", err)
				return false
			}
			log("op %d t=%v INSERT %v -> %v", op, now, rule, res.Path)
			live = append(live, nextID)
			nextID++
		case x < 8 && len(live) > 0:
			i := r.Intn(len(live))
			if _, err := a.Delete(now, live[i]); err != nil {
				t.Logf("delete: %v", err)
				return false
			}
			log("op %d t=%v DELETE %d", op, now, live[i])
			live = append(live[:i], live[i+1:]...)
		case x == 8:
			if end := a.Tick(now); end != 0 && r.Intn(2) == 0 {
				now = end
				a.Advance(now)
				log("op %d t=%v TICK->MIGRATE done", op, now)
			} else {
				log("op %d t=%v TICK", op, now)
			}
		default:
			if end := a.ForceMigration(now); end != 0 && r.Intn(2) == 0 {
				now = end
				a.Advance(now)
				log("op %d t=%v MIGRATE done", op, now)
			} else {
				log("op %d t=%v MIGRATE started (in flight)", op, now)
			}
		}
		if !check(op) {
			if !verbose {
				fmt.Printf("seed %d fails at op %d\n", seed, op)
			}
			return false
		}
	}
	return true
}
