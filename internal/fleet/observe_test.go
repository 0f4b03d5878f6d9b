package fleet

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/ofwire"
	"hermes/internal/tcam"
)

// restartAgent brings a fresh, empty agent up on a dead agent's address,
// skipping the test when the OS has not released the port yet.
func restartAgent(t *testing.T, addr string) {
	t.Helper()
	srv, err := ofwire.NewAgentServer("restarted", tcam.Pica8P3290,
		core.Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	go srv.Serve(lis) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
}

// TestFleetObservedRules: ObservedRules dumps the switch's live rule set —
// the observed side of a desired-vs-observed diff — sorted by ID and
// reflecting deletes; unknown switches fail with ErrUnknownSwitch.
func TestFleetObservedRules(t *testing.T) {
	specs, _ := startAgents(t, 2, core.Config{DisableRateLimit: true})
	f, err := New(Config{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	want := map[string][]classifier.Rule{}
	for i := 1; i <= 30; i++ {
		r := testRule(i)
		sw := f.Route(r.ID)
		if res := f.Insert(sw, r); res.Err != nil {
			t.Fatalf("insert %d: %v", i, res.Err)
		}
		want[sw] = append(want[sw], r)
	}
	for _, sw := range f.Switches() {
		got, err := f.ObservedRules(sw)
		if err != nil {
			t.Fatalf("ObservedRules(%s): %v", sw, err)
		}
		if len(got) != len(want[sw]) {
			t.Fatalf("%s observed %d rules, want %d", sw, len(got), len(want[sw]))
		}
		byID := map[classifier.RuleID]classifier.Rule{}
		for i, r := range got {
			if i > 0 && got[i-1].ID >= r.ID {
				t.Fatalf("%s dump not sorted: %d then %d", sw, got[i-1].ID, r.ID)
			}
			byID[r.ID] = r
		}
		for _, r := range want[sw] {
			if byID[r.ID] != r {
				t.Fatalf("%s rule %d: observed %+v, want %+v", sw, r.ID, byID[r.ID], r)
			}
		}
	}

	// A delete shows up in the next dump.
	victim := want[specs[0].ID][0]
	if res := f.Delete(specs[0].ID, victim.ID); res.Err != nil {
		t.Fatal(res.Err)
	}
	got, err := f.ObservedRules(specs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID == victim.ID {
			t.Fatalf("deleted rule %d still observed", r.ID)
		}
	}

	if _, err := f.ObservedRules("no-such-switch"); !errors.Is(err, ErrUnknownSwitch) {
		t.Fatalf("unknown switch err = %v, want ErrUnknownSwitch", err)
	}
	if st, err := f.BreakerState(specs[0].ID); err != nil || st != BreakerClosed {
		t.Fatalf("BreakerState = %v, %v; want closed, nil", st, err)
	}
	if _, err := f.BreakerState("no-such-switch"); !errors.Is(err, ErrUnknownSwitch) {
		t.Fatalf("BreakerState unknown switch err = %v, want ErrUnknownSwitch", err)
	}
}

// TestFleetClosedErrorsAreTyped: after Close, every entry point fails with
// an error that errors.Is-matches ErrFleetClosed — the permanent-failure
// signal a retry layer uses to stop requeueing — and that is distinct from
// the transient CircuitOpenError.
func TestFleetClosedErrorsAreTyped(t *testing.T) {
	specs, _ := startAgents(t, 1, core.Config{DisableRateLimit: true})
	f, err := New(Config{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := f.InsertAsync(specs[0].ID, testRule(1)); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("InsertAsync after Close: %v, want ErrFleetClosed", err)
	}
	if _, err := f.DeleteAsync(specs[0].ID, 1); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("DeleteAsync after Close: %v, want ErrFleetClosed", err)
	}
	if _, err := f.ModifyAsync(specs[0].ID, testRule(1)); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("ModifyAsync after Close: %v, want ErrFleetClosed", err)
	}
	if res := f.Insert(specs[0].ID, testRule(1)); !errors.Is(res.Err, ErrFleetClosed) {
		t.Fatalf("Insert after Close: %v, want ErrFleetClosed", res.Err)
	}
	if _, err := f.ObservedRules(specs[0].ID); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("ObservedRules after Close: %v, want ErrFleetClosed", err)
	}

	// The permanent signal must not be mistaken for the transient one: a
	// reconciler requeues on CircuitOpenError and stops on ErrFleetClosed.
	res := f.Insert(specs[0].ID, testRule(1))
	var open *CircuitOpenError
	if errors.As(res.Err, &open) {
		t.Fatalf("closed-fleet error %v matches CircuitOpenError", res.Err)
	}
}

// TestFleetOnReconnect: killing an agent and restarting it on the same
// address fires the OnReconnect hook with the switch ID once the probe
// loop has redialed and the fresh connection answered a probe.
func TestFleetOnReconnect(t *testing.T) {
	specs, servers := startAgents(t, 1, core.Config{DisableRateLimit: true})
	var (
		mu    sync.Mutex
		fired []string
	)
	f, err := New(Config{
		ProbeInterval: 20 * time.Millisecond,
		DialTimeout:   500 * time.Millisecond,
		Breaker:       BreakerConfig{FailureThreshold: 2, OpenTimeout: 50 * time.Millisecond},
		OnReconnect: func(sw string) {
			mu.Lock()
			fired = append(fired, sw)
			mu.Unlock()
		},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if res := f.Insert(specs[0].ID, testRule(1)); res.Err != nil {
		t.Fatal(res.Err)
	}
	powerCycle(t, f, specs[0], servers[0])

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(fired)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("OnReconnect never fired after restart")
		}
		time.Sleep(20 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, sw := range fired {
		if sw != specs[0].ID {
			t.Fatalf("OnReconnect fired for %q, want %q", sw, specs[0].ID)
		}
	}
}
