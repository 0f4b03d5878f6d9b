package intent

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/obs"
	"hermes/internal/sim"
)

// fakeTarget is an in-memory switch set with scriptable readiness and
// failures — the unit-test stand-in for the fleet behind the Target seam.
type fakeTarget struct {
	mu         sync.Mutex
	rules      map[string]map[classifier.RuleID]classifier.Rule
	unready    map[string]bool
	observeErr map[string]error
	applyErr   map[string]error
	applies    int
	observes   int
}

func newFakeTarget(switches ...string) *fakeTarget {
	ft := &fakeTarget{
		rules:      make(map[string]map[classifier.RuleID]classifier.Rule),
		unready:    make(map[string]bool),
		observeErr: make(map[string]error),
		applyErr:   make(map[string]error),
	}
	for _, sw := range switches {
		ft.rules[sw] = make(map[classifier.RuleID]classifier.Rule)
	}
	return ft
}

func (ft *fakeTarget) Ready(sw string) bool {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return !ft.unready[sw]
}

func (ft *fakeTarget) Observe(sw string) ([]classifier.Rule, error) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.observes++
	if err := ft.observeErr[sw]; err != nil {
		return nil, err
	}
	out := make([]classifier.Rule, 0, len(ft.rules[sw]))
	for _, r := range ft.rules[sw] {
		out = append(out, r)
	}
	return out, nil
}

func (ft *fakeTarget) Apply(sw string, plan []Op) error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if err := ft.applyErr[sw]; err != nil {
		return err
	}
	for _, op := range plan {
		ft.applies++
		switch op.Kind {
		case OpInsert, OpModify:
			ft.rules[sw][op.Rule.ID] = op.Rule
		case OpDelete:
			delete(ft.rules[sw], op.Rule.ID)
		}
	}
	return nil
}

func (ft *fakeTarget) set(sw string, rules ...classifier.Rule) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	m := make(map[classifier.RuleID]classifier.Rule, len(rules))
	for _, r := range rules {
		m[r.ID] = r
	}
	ft.rules[sw] = m
}

func (ft *fakeTarget) snapshot(sw string) map[classifier.RuleID]classifier.Rule {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	out := make(map[classifier.RuleID]classifier.Rule, len(ft.rules[sw]))
	for id, r := range ft.rules[sw] {
		out[id] = r
	}
	return out
}

// matches asserts the target's rules equal the store's partition.
func matches(t *testing.T, s *Store, ft *fakeTarget, sw string) {
	t.Helper()
	desired, _ := s.Desired(sw)
	got := ft.snapshot(sw)
	if len(got) != len(desired) {
		t.Fatalf("%s holds %d rules, want %d", sw, len(got), len(desired))
	}
	for _, r := range desired {
		if got[r.ID] != r {
			t.Fatalf("%s rule %d = %+v, want %+v", sw, r.ID, got[r.ID], r)
		}
	}
}

const (
	swEven = "sw-0"
	swOdd  = "sw-1"
)

// engineAfter is Config.After on an engine's virtual clock, so requeue
// backoff elapses only when the test advances it.
func engineAfter(e *sim.Engine) func(time.Duration, func()) {
	return func(d time.Duration, fn func()) { e.After(d, func(time.Duration) { fn() }) }
}

// driven builds a single driven controller over a fresh store, fake
// target, and virtual clock.
func driven(t *testing.T, mutate func(*Config)) (*Store, *fakeTarget, *Controller, *sim.Engine, *obs.Tracer) {
	t.Helper()
	s := NewStore(routeMod2)
	ft := newFakeTarget(swEven, swOdd)
	clk := sim.New()
	tr := obs.NewTracer(1024, 4)
	cfg := Config{
		Switches: []string{swEven, swOdd},
		Shards:   2,
		Store:    s,
		Target:   ft,
		Now:      clk.Now,
		After:    engineAfter(clk),
		Trace:    tr,
		RateLimit: RateLimit{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond,
			Multiplier: 2, Jitter: 0.2},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, ft, c, clk, cfg.Trace
}

// TestControllerConvergesOnUpdate: store mutations trigger reconciles
// through the subscription; a burst of updates to one switch coalesces
// into one reconcile applying the whole diff.
func TestControllerConvergesOnUpdate(t *testing.T) {
	s, ft, c, _, tr := driven(t, nil)
	// Pre-existing junk on the switch must be deleted by the first pass.
	ft.set(swOdd, rule(99, 1))
	for i := 1; i <= 8; i++ {
		s.Set(rule(i, 1))
	}
	n := c.RunUntilQuiesced()
	// 8 updates across 2 switches → at most 2 reconciles each (a key
	// re-added mid-processing reconciles once more), not 8.
	if n > 4 {
		t.Fatalf("%d reconciles for a coalesced burst, want <= 4", n)
	}
	matches(t, s, ft, swEven)
	matches(t, s, ft, swOdd)
	if ft.snapshot(swOdd)[99] != (classifier.Rule{}) {
		t.Fatal("stale rule 99 survived reconciliation")
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after quiesce", c.Pending())
	}
	gen, ok := c.ConvergedGeneration(swOdd)
	if !ok || gen != s.Generation() {
		t.Fatalf("converged generation = %d,%v, want %d", gen, ok, s.Generation())
	}
	var converges int
	for _, e := range tr.Events() {
		if e.Kind == obs.EvConverge {
			converges++
		}
	}
	if converges != n {
		t.Fatalf("trace has %d converges for %d reconciles", converges, n)
	}

	// A later modify + delete converges incrementally.
	s.Set(rule(2, 7))
	s.Delete(5)
	c.RunUntilQuiesced()
	matches(t, s, ft, swEven)
	matches(t, s, ft, swOdd)
}

// TestControllerUnreadyRequeues: an unready switch (open breaker)
// requeues with growing backoff instead of erroring, and converges once
// ready; success resets the backoff schedule.
func TestControllerUnreadyRequeues(t *testing.T) {
	s, ft, c, clk, tr := driven(t, nil)
	ft.mu.Lock()
	ft.unready[swOdd] = true
	ft.mu.Unlock()
	s.Set(rule(1, 1)) // routes to sw-1

	for i := 0; i < 3; i++ {
		if n := c.Step(); i == 0 && n != 1 {
			t.Fatalf("first step ran %d reconciles, want 1", n)
		}
		// Key is waiting out its backoff: nothing ready until the clock
		// advances.
		if n := c.Step(); n != 0 {
			t.Fatalf("step %d reconciled %d while backoff pending", i, n)
		}
		next, ok := clk.NextAt()
		if !ok {
			t.Fatalf("no requeue timer pending after attempt %d", i+1)
		}
		clk.AdvanceTo(next)
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending = %d while unready", c.Pending())
	}
	var delays []time.Duration
	for _, e := range tr.Events() {
		if e.Kind == obs.EvRequeue {
			delays = append(delays, time.Duration(e.B))
		}
	}
	if len(delays) < 3 {
		t.Fatalf("only %d requeues traced", len(delays))
	}
	if delays[2] <= delays[0] {
		t.Fatalf("backoff not growing: %v", delays)
	}

	ft.mu.Lock()
	ft.unready[swOdd] = false
	ft.mu.Unlock()
	c.RunUntilQuiesced()
	matches(t, s, ft, swOdd)
	if c.Pending() != 0 {
		t.Fatal("still pending after convergence")
	}
	// Success forgot the backoff: shard queue reports zero requeues.
	if n := c.shards[c.byShard[swOdd]].q.Requeues(swOdd); n != 0 {
		t.Fatalf("requeues not reset after convergence: %d", n)
	}
}

// TestControllerTransientVsPermanent: transient observe/apply errors
// requeue and eventually converge; a permanent error halts the key and
// later triggers are ignored.
func TestControllerTransientVsPermanent(t *testing.T) {
	errTransient := errors.New("transient wire fault")
	errPermanent := errors.New("fleet closed")
	s, ft, c, clk, tr := driven(t, func(cfg *Config) {
		cfg.Permanent = func(err error) bool { return errors.Is(err, errPermanent) }
	})

	// Transient observe failure, then a transient apply failure.
	ft.mu.Lock()
	ft.observeErr[swOdd] = errTransient
	ft.mu.Unlock()
	s.Set(rule(1, 1))
	c.Step()
	ft.mu.Lock()
	ft.observeErr[swOdd] = nil
	ft.applyErr[swOdd] = errTransient
	ft.mu.Unlock()
	next, _ := clk.NextAt()
	clk.AdvanceTo(next)
	c.Step()
	ft.mu.Lock()
	ft.applyErr[swOdd] = nil
	ft.mu.Unlock()
	next, _ = clk.NextAt()
	clk.AdvanceTo(next)
	c.RunUntilQuiesced()
	matches(t, s, ft, swOdd)
	if _, halted := c.Halted(swOdd); halted {
		t.Fatal("transient errors halted the key")
	}

	// Permanent failure halts.
	ft.mu.Lock()
	ft.observeErr[swEven] = errPermanent
	ft.mu.Unlock()
	s.Set(rule(2, 1)) // routes to sw-0
	c.RunUntilQuiesced()
	err, halted := c.Halted(swEven)
	if !halted || !errors.Is(err, errPermanent) {
		t.Fatalf("Halted = %v,%v, want the permanent error", err, halted)
	}
	if _, ok := clk.NextAt(); ok {
		t.Fatal("permanent failure left a requeue timer pending")
	}
	// Later triggers on a halted key are dropped.
	c.MarkDirty(swEven, DirtyFault)
	if n := c.Step(); n != 0 {
		t.Fatalf("halted key reconciled %d times", n)
	}
	var halts int
	for _, e := range tr.Events() {
		if e.Kind == obs.EvHalt && e.Rule == 0 { // swEven is Switches[0]
			halts++
		}
	}
	if halts != 1 {
		t.Fatalf("trace has %d halts, want 1", halts)
	}
}

// TestControllerLeaseFailover: two replicas share the store, target,
// lease table, and clock. While A steps it owns the shards; when A stops
// (crash) and the TTL lapses, B takes the shards over and converges the
// backlog.
func TestControllerLeaseFailover(t *testing.T) {
	s := NewStore(routeMod2)
	ft := newFakeTarget(swEven, swOdd)
	clk := sim.New()
	leases := NewLeaseTable(200 * time.Millisecond)
	mk := func(id string, tr *obs.Tracer) *Controller {
		c, err := New(Config{
			Switches: []string{swEven, swOdd},
			Shards:   2,
			ID:       id,
			Store:    s,
			Target:   ft,
			Now:      clk.Now,
			After:    engineAfter(clk),
			Leases:   leases,
			Trace:    tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	traceB := obs.NewTracer(1024, 4)
	a, b := mk("ctrl-a", obs.NewTracer(1024, 4)), mk("ctrl-b", traceB)

	s.Set(rule(1, 1))
	s.Set(rule(2, 1))
	a.RunUntilQuiesced()
	matches(t, s, ft, swEven)
	matches(t, s, ft, swOdd)
	// B holds no lease: its queued keys stay put.
	if n := b.RunUntilQuiesced(); n != 0 {
		t.Fatalf("non-leader reconciled %d keys", n)
	}
	if who, _ := leases.Holder(0, clk.Now()); who != "ctrl-a" {
		t.Fatalf("shard 0 holder = %q", who)
	}

	// A crashes (stops stepping). New desired state accumulates.
	s.Set(rule(3, 9))
	s.Set(rule(4, 9))
	if n := b.RunUntilQuiesced(); n != 0 {
		t.Fatal("B drained while A's lease was live")
	}
	// Past the TTL, B takes over and converges the backlog.
	clk.AdvanceTo(clk.Now() + 250*time.Millisecond)
	if n := b.RunUntilQuiesced(); n == 0 {
		t.Fatal("B never took over after lease expiry")
	}
	matches(t, s, ft, swEven)
	matches(t, s, ft, swOdd)
	if who, _ := leases.Holder(0, clk.Now()); who != "ctrl-b" {
		t.Fatalf("post-failover shard 0 holder = %q", who)
	}
	var handoffs int
	for _, e := range traceB.Events() {
		if e.Kind == obs.EvLease {
			handoffs++
		}
	}
	if handoffs != 2 { // both shards
		t.Fatalf("trace shows %d takeovers by B, want 2", handoffs)
	}
	if leases.Transfers() != 4 { // A takes 2, B takes 2
		t.Fatalf("lease transfers = %d, want 4", leases.Transfers())
	}
}

// traceDigest is one run's digest and whether its tracer held the whole
// run.
type traceDigest struct {
	sum uint64
	ok  bool
}

// replays is the replay comparison: two runs converged the same way only
// if both tracers held every event and their digests agree.
func replays(a, b traceDigest) bool { return a.ok && b.ok && a.sum == b.sum }

// scenario runs one fixed chaos-flavored script against a fresh driven
// controller, tracing into a ring of the given size, and returns the
// digest.
func scenario(t *testing.T, seed int64, ring int) traceDigest {
	t.Helper()
	s, ft, c, clk, tr := driven(t, func(cfg *Config) {
		cfg.Seed = seed
		cfg.Trace = obs.NewTracer(ring, 4)
	})
	ft.mu.Lock()
	ft.unready[swEven] = true
	ft.mu.Unlock()
	for i := 1; i <= 10; i++ {
		s.Set(rule(i, i))
	}
	c.Step()
	clk.AdvanceTo(clk.Now() + 15*time.Millisecond)
	c.Step()
	s.Delete(3)
	s.Set(rule(4, 40))
	ft.mu.Lock()
	ft.unready[swEven] = false
	ft.mu.Unlock()
	c.MarkDirty(swEven, DirtyReconnect)
	for {
		c.RunUntilQuiesced()
		next, ok := clk.NextAt()
		if !ok {
			break
		}
		clk.AdvanceTo(next)
	}
	matches(t, s, ft, swEven)
	matches(t, s, ft, swOdd)
	var d traceDigest
	d.sum, d.ok = tr.Digest()
	return d
}

// TestControllerTraceDigestDeterministic: the same scripted run yields
// byte-identical traces; a different jitter seed yields a different
// schedule and so a different digest.
func TestControllerTraceDigestDeterministic(t *testing.T) {
	a, b := scenario(t, 7, 1024), scenario(t, 7, 1024)
	if !replays(a, b) {
		t.Fatalf("same-seed runs do not replay: %x,%v vs %x,%v", a.sum, a.ok, b.sum, b.ok)
	}
	if c := scenario(t, 8, 1024); !c.ok || c.sum == a.sum {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestControllerTraceWrapFailsReplay: a tracer too small for the run
// wraps, and the replay comparison fails even between two same-seed runs
// — a digest of the surviving tail never vouches for the whole run.
func TestControllerTraceWrapFailsReplay(t *testing.T) {
	a, b := scenario(t, 7, 16), scenario(t, 7, 16)
	if a.ok || b.ok {
		t.Fatalf("a 16-event ring held the whole scenario (ok %v,%v); it no longer exercises a wrap", a.ok, b.ok)
	}
	if replays(a, b) {
		t.Fatal("wrapped tracers passed the replay comparison")
	}
}

// TestControllerGoroutineMode: Run drains queues on worker goroutines
// with real timers, the resync tick repairs drift the controller was
// never told about, and Close joins everything.
func TestControllerGoroutineMode(t *testing.T) {
	s := NewStore(routeMod2)
	ft := newFakeTarget(swEven, swOdd)
	var tick atomic.Int64
	reg := obs.NewRegistry()
	c, err := New(Config{
		Switches: []string{swEven, swOdd},
		Shards:   2,
		Store:    s,
		Target:   ft,
		Now:      func() time.Duration { return time.Duration(tick.Add(1)) },
		Resync:   20 * time.Millisecond,
		Obs:      reg,
		RateLimit: RateLimit{Base: time.Millisecond, Max: 10 * time.Millisecond,
			Multiplier: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	defer c.Close()

	for i := 1; i <= 20; i++ {
		s.Set(rule(i, 1))
	}
	waitConverged := func(what string) {
		t.Helper()
		for i := 0; ; i++ {
			genE, okE := c.ConvergedGeneration(swEven)
			genO, okO := c.ConvergedGeneration(swOdd)
			if okE && okO && genE == s.Generation() && genO == s.Generation() &&
				c.Pending() == 0 {
				return
			}
			if i > 1000 {
				t.Fatalf("%s: never converged (pending %d)", what, c.Pending())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitConverged("initial load")
	matches(t, s, ft, swEven)
	matches(t, s, ft, swOdd)

	// Drift injected behind the controller's back: only the periodic
	// resync tick can notice.
	ft.set(swOdd, rule(99, 9))
	for i := 0; ; i++ {
		got := ft.snapshot(swOdd)
		if _, stale := got[99]; !stale {
			desired, _ := s.Desired(swOdd)
			if len(got) == len(desired) {
				break
			}
		}
		if i > 1000 {
			t.Fatal("resync never repaired injected drift")
		}
		time.Sleep(5 * time.Millisecond)
	}
	matches(t, s, ft, swOdd)
	if c.converges.Value() == 0 {
		t.Fatal("converges counter never incremented")
	}
	if c.lag.Count() == 0 {
		t.Fatal("lag histogram never recorded")
	}
}
