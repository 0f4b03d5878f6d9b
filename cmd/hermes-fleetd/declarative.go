package main

import (
	"fmt"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/fleet"
	"hermes/internal/intent"
	"hermes/internal/obs"
	"hermes/internal/workload"
)

// Declarative mode: instead of replaying the workload as imperative
// flow-mods, pour it into an intent.Store and let the level-triggered
// reconciler drive the fleet to match — reconnects, faults, and resync
// ticks all funnel into the same per-switch queues, so a killed switch
// simply stays pending while the rest of the fleet converges. The store is
// the only owner of desired state; the fleet is the controller's Target.

// runDeclarative feeds the workload into the desired-state store, runs
// the reconciler in goroutine mode against the live fleet, and reports
// per-switch convergence. kill, when >= 0, closes that agent's server
// halfway through the churn, demonstrating that the rest of the fleet
// converges while the dead switch stays pending.
func runDeclarative(f *fleet.Fleet, reg *obs.Registry,
	stream []workload.TimedRule, resync time.Duration, seed int64,
	kill func(), wait time.Duration) {

	start := time.Now()
	store := intent.NewStore(f.Route)
	shards := f.Size()
	if shards > 4 {
		shards = 4
	}
	ctrl, err := f.NewController(intent.Config{
		Shards: shards,
		ID:     "fleetd",
		Store:  store,
		Now:    func() time.Duration { return time.Since(start) },
		Resync: resync,
		Seed:   seed,
		Obs:    reg,
	})
	if err != nil {
		fatalf("controller: %v", err)
	}
	ctrl.Run()
	defer ctrl.Close()
	fmt.Printf("declarative mode: reconciling %d rules across %d switches (%d shards, resync %v)\n",
		len(stream), f.Size(), shards, resync)

	for i, tr := range stream {
		if kill != nil && i == len(stream)/2 {
			kill()
		}
		r := tr.Rule
		r.ID = classifier.RuleID(i + 1)
		store.Set(r)
	}

	// Wait for the fleet to settle: every switch either converged at the
	// final generation or visibly stuck (killed / halted).
	gen := store.Generation()
	deadline := time.Now().Add(wait)
	settled := func() bool {
		for _, sw := range f.Switches() {
			if _, dead := ctrl.Halted(sw); dead {
				continue
			}
			if g, ok := ctrl.ConvergedGeneration(sw); !ok || g != gen {
				return false
			}
		}
		return true
	}
	for !settled() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	elapsed := time.Since(start)

	fmt.Println()
	converged := 0
	for _, sw := range f.Switches() {
		st, _ := f.BreakerState(sw)
		if herr, dead := ctrl.Halted(sw); dead {
			fmt.Printf("  %-8s HALTED (%v)\n", sw, herr)
			continue
		}
		if g, ok := ctrl.ConvergedGeneration(sw); ok && g == gen {
			converged++
			fmt.Printf("  %-8s converged at generation %d (breaker %v)\n", sw, g, st)
		} else {
			fmt.Printf("  %-8s PENDING at generation %d/%d (breaker %v) — expected with -kill\n",
				sw, g, gen, st)
		}
	}
	fmt.Println()
	fmt.Printf("declared %d rules (store generation %d) — %d/%d switches converged in %v\n",
		store.Len(), gen, converged, f.Size(), elapsed.Round(time.Millisecond))
}
