package core_test

// A main-table delete that gives a shadow rule nothing back leaves the rule's
// fragments installed instead of re-cutting it (DESIGN.md §17). The rule must
// then hold exactly what a full re-cut would have left: the same region and,
// recorded, the same causes (Agent.CheckPartitions), with the pipeline equal
// to one monolithic table (verify.Agent).

import (
	"bufio"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/obs"
)

// keptCounter reads hermes_gatekeeper_recuts_kept_total off a registry the
// agent registered its metrics on.
func keptCounter(t *testing.T, reg *obs.Registry) int {
	t.Helper()
	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	for sc := bufio.NewScanner(strings.NewReader(sb.String())); sc.Scan(); {
		var n int
		if _, err := fmt.Sscanf(sc.Text(), "hermes_gatekeeper_recuts_kept_total %d", &n); err == nil {
			return n
		}
	}
	t.Fatal("/metrics lacks hermes_gatekeeper_recuts_kept_total")
	return 0
}

// keptStep deletes one rule and expects that many kept un-partitions and
// re-cuts (Metrics.Repartitions) from it.
type keptStep struct {
	del         classifier.RuleID
	kept, recut int
}

func TestKeptFragmentsEqualFullRecut(t *testing.T) {
	const anySrc = "0.0.0.0/0"
	dep := srcDstRule(9, "10.0.0.0/8", anySrc, 10, 9)
	scripted := []struct {
		name string
		// main is migrated into the main table first; migrating is mid-migration
		// while shadow arrives, and lands in the main table after it.
		main, migrating, shadow []classifier.Rule
		steps                   []keptStep
	}{{
		// Deleting the /16 gives rule 9 back 10.0.128.0/17, which the /17 does
		// not cover: rule 9 must grow, so it is re-cut.
		name: "partly re-covered",
		main: []classifier.Rule{
			srcDstRule(1, "10.0.0.0/16", anySrc, 100, 1),
			srcDstRule(2, "10.0.0.0/17", anySrc, 90, 2),
		},
		shadow: []classifier.Rule{dep},
		steps:  []keptStep{{del: 1, recut: 1}, {del: 2, recut: 1}},
	}, {
		name: "fully re-covered",
		main: []classifier.Rule{
			srcDstRule(1, "10.0.0.0/16", anySrc, 100, 1),
			srcDstRule(2, "10.0.0.0/17", anySrc, 90, 2),
			srcDstRule(3, "10.0.128.0/17", anySrc, 90, 3),
		},
		shadow: []classifier.Rule{dep},
		steps:  []keptStep{{del: 1, kept: 1}, {del: 2, recut: 1}, {del: 3, recut: 1}},
	}, {
		// Rule 1's src contains rule 9's, so the walk skips what lies under
		// it: rule 2, a later entry of its node, and the /10s beneath. Rule 9
		// records rule 1 alone. Deleting rule 1 gives rule 9 nothing back
		// (rules 2 to 4 cover the /9), and rule 9 must then record them, or
		// deleting rule 3 would not give rule 9 back the half of 10.0.0.0/10
		// that rule 2 leaves. ("fully re-covered" is the same with one src.)
		name: "pruned causes take over",
		main: []classifier.Rule{
			srcDstRule(1, "10.0.0.0/9", anySrc, 100, 1),
			srcDstRule(2, "10.0.0.0/9", "0.0.0.0/1", 95, 2),
			srcDstRule(3, "10.0.0.0/10", anySrc, 90, 3),
			srcDstRule(4, "10.64.0.0/10", "128.0.0.0/1", 90, 4),
		},
		shadow: []classifier.Rule{dep},
		steps:  []keptStep{{del: 1, kept: 1}, {del: 3, recut: 1}, {del: 2, recut: 1}, {del: 4, recut: 1}},
	}, {
		// Rule 2 is redundant behind rule 1 and migrates while rule 9 sits in
		// the shadow table. It lands inside what rule 9 already lost to rule 1,
		// so the post-migration re-check leaves rule 9 alone — and must record
		// rule 2 as its cause, or deleting rule 1 (kept: rule 2 covers its
		// region) and then rule 2 would never give rule 9 the /24 back.
		name: "cause migrated in beside the dependent",
		main: []classifier.Rule{srcDstRule(1, "10.0.0.0/24", anySrc, 100, 1)},
		migrating: []classifier.Rule{
			srcDstRule(2, "10.0.0.0/24", anySrc, 50, 2),
			srcDstRule(3, "10.9.0.0/16", anySrc, 5, 3), // something for the migration to carry
		},
		shadow: []classifier.Rule{srcDstRule(9, "10.0.0.0/22", anySrc, 10, 9)},
		steps:  []keptStep{{del: 1, kept: 1}, {del: 2, recut: 1}},
	}, {
		// Two dimensions: rule 2's src /1 covers all of rule 1's src /8 over the
		// same dst, rule 4 only half of rule 3's dst.
		name: "src prefixes",
		main: []classifier.Rule{
			srcDstRule(1, "10.0.0.0/16", "1.0.0.0/8", 100, 1),
			srcDstRule(2, "10.0.0.0/16", "0.0.0.0/1", 90, 2),
			srcDstRule(3, "10.1.0.0/16", "1.0.0.0/8", 100, 3),
			srcDstRule(4, "10.1.0.0/17", "0.0.0.0/1", 90, 4),
		},
		shadow: []classifier.Rule{dep},
		steps:  []keptStep{{del: 1, kept: 1}, {del: 3, recut: 1}, {del: 2, recut: 1}, {del: 4, recut: 1}},
	}}
	for _, tc := range scripted {
		t.Run(tc.name, func(t *testing.T) {
			a := tableAgent(t, core.Config{})
			reg := obs.NewRegistry()
			a.RegisterCacheMetrics(reg)
			insert := func(now time.Duration, rules []classifier.Rule) {
				t.Helper()
				for _, r := range rules {
					if _, err := a.Insert(now, r); err != nil {
						t.Fatalf("insert %d: %v", r.ID, err)
					}
				}
			}
			insert(0, tc.main)
			migrateAll(t, a, 0)
			insert(time.Second, tc.migrating)
			var end time.Duration
			if len(tc.migrating) > 0 {
				if end = a.ForceMigration(time.Second); end == 0 {
					t.Fatal("no migration started")
				}
			}
			insert(time.Second, tc.shadow)
			a.Advance(end)
			mustBeExact(t, a, "set up")
			for i, s := range tc.steps {
				kept, recut := keptCounter(t, reg), a.Metrics().Repartitions
				if _, err := a.Delete(time.Duration(2+i)*time.Second, s.del); err != nil {
					t.Fatal(err)
				}
				when := fmt.Sprintf("step %d, rule %d deleted", i, s.del)
				if got := [2]int{keptCounter(t, reg) - kept, a.Metrics().Repartitions - recut}; got != [2]int{s.kept, s.recut} {
					t.Errorf("%s: %d kept, %d re-cut; want %d, %d", when, got[0], got[1], s.kept, s.recut)
				}
				mustBeExact(t, a, when)
			}
		})
	}

	// Seeded nested MicroBench replays (TestGateKeeperCountsPinned's streams):
	// every delete checks every shadow rule's record against a fresh cut, and
	// every epoch ends in the exact checker with the tables full and drained.
	// A main rule whose src contains a dependent's takes everything beneath
	// it from the dependent's causes, so a kept un-partition needs main rules
	// of partial src: the merge-off row draws its srcs as the src row does.
	srcs := []string{"0.0.0.0/0", "0.0.0.0/1", "128.0.0.0/1", "64.0.0.0/2", "192.0.0.0/3"}
	for _, tc := range []struct {
		name string
		cfg  core.Config
		srcs []string
	}{
		{name: "MicroBench, merge on"},
		{name: "MicroBench, merge off", cfg: core.Config{DisableMergeOptimization: true}, srcs: srcs},
		{name: "MicroBench with src prefixes", srcs: srcs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			streams := pinStreams()
			if tc.srcs != nil {
				rng := rand.New(rand.NewSource(pinSeed))
				for _, s := range streams {
					for i := range s {
						s[i].Rule.Match.Src = classifier.MustParsePrefix(tc.srcs[rng.Intn(len(tc.srcs))])
					}
				}
			}
			tc.cfg.TrackLogical = true
			a := pinAgent(t, tc.cfg)
			reg := obs.NewRegistry()
			a.RegisterCacheMetrics(reg)
			var base time.Duration
			nextTick := pinTick
			deletes := 0
			checked := func() {
				t.Helper()
				deletes++
				if err := a.CheckPartitions(); err != nil {
					t.Fatalf("delete %d: %v", deletes, err)
				}
			}
			for k, stream := range streams {
				pinEpoch(t, a, &base, &nextTick, stream, func() { mustBeExact(t, a, fmt.Sprintf("epoch %d full", k)) }, checked)
				mustBeExact(t, a, fmt.Sprintf("epoch %d drained", k))
			}
			if kept, recut := keptCounter(t, reg), a.Metrics().Repartitions; kept == 0 || recut == 0 {
				t.Errorf("replay drifted: %d kept, %d re-cut; it must exercise both", kept, recut)
			}
		})
	}
}
