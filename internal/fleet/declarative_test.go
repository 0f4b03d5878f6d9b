package fleet

import (
	"testing"
	"time"

	"hermes/internal/core"
	"hermes/internal/intent"
)

// TestDeclarativeReconcileOverFleet: the intent controller in goroutine
// mode drives a live 3-agent fleet to its desired set, survives a switch
// being killed (breaker opens, key backs off), and — once the agent
// restarts with empty tables — the reconnect trigger reinstalls the full
// partition without any imperative replay.
func TestDeclarativeReconcileOverFleet(t *testing.T) {
	specs, servers := startAgents(t, 3, core.Config{DisableRateLimit: true})
	f, err := New(Config{
		BatchSize:     4,
		ProbeInterval: 20 * time.Millisecond,
		Breaker:       BreakerConfig{FailureThreshold: 2, OpenTimeout: 50 * time.Millisecond},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	start := time.Now()
	store := intent.NewStore(f.Route)
	ctrl, err := f.NewController(intent.Config{
		Shards: 2,
		ID:     "test",
		Store:  store,
		Now:    func() time.Duration { return time.Since(start) },
		Resync: 50 * time.Millisecond,
		RateLimit: intent.RateLimit{Base: 5 * time.Millisecond,
			Max: 50 * time.Millisecond, Multiplier: 2, Jitter: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Run()
	defer ctrl.Close()

	converged := func() bool {
		gen := store.Generation()
		for _, sw := range f.Switches() {
			if g, ok := ctrl.ConvergedGeneration(sw); !ok || g != gen {
				return false
			}
		}
		return true
	}
	zeroDiff := func(sw string) bool {
		desired, _ := store.Desired(sw)
		observed, err := f.ObservedRules(sw)
		return err == nil && len(intent.Diff(desired, observed)) == 0
	}

	// Declare the initial set and let the controller install it.
	for i := 1; i <= 30; i++ {
		store.Set(testRule(i))
	}
	waitUntil(t, "initial convergence", converged)
	for _, sw := range f.Switches() {
		if !zeroDiff(sw) {
			t.Fatalf("%s differs from desired after convergence", sw)
		}
	}

	// Kill one agent: its breaker opens and its key backs off, while
	// churn routed to live switches keeps converging.
	victim := specs[1]
	servers[1].Close() //nolint:errcheck
	waitUntil(t, "breaker open on killed switch", func() bool {
		st, err := f.BreakerState(victim.ID)
		return err == nil && st == BreakerOpen
	})
	for i := 31; i <= 45; i++ {
		store.Set(testRule(i))
	}
	waitUntil(t, "live switches converging past the dead one", func() bool {
		gen := store.Generation()
		for _, sw := range f.Switches() {
			if sw == victim.ID {
				continue
			}
			if g, ok := ctrl.ConvergedGeneration(sw); !ok || g != gen {
				return false
			}
		}
		return true
	})
	if g, _ := ctrl.ConvergedGeneration(victim.ID); g == store.Generation() {
		t.Fatal("dead switch claims convergence at the latest generation")
	}

	// Restart the agent empty: the probe redials, the reconnect hook
	// marks the key dirty, and the reconciler reinstalls the whole
	// partition — the level-triggered self-heal, no replay needed.
	restartAgent(t, victim.Addr)
	waitUntil(t, "full reconvergence after restart", func() bool {
		return converged() && zeroDiff(victim.ID)
	})
	desired, _ := store.Desired(victim.ID)
	if len(desired) == 0 {
		t.Fatal("victim partition empty; test routed it no rules")
	}
	if err, dead := ctrl.Halted(victim.ID); dead {
		t.Fatalf("victim halted (%v); a restartable switch must stay transient", err)
	}
}
