package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/faultinject"
	"hermes/internal/intent"
	"hermes/internal/obs"
	"hermes/internal/ofwire"
)

// TestFleetWireBatchEndToEnd: batch mode drives real agents through the
// vectored wire path. Every submitted op completes exactly once with its
// own result, and the merged stats balance just like in per-op mode.
func TestFleetWireBatchEndToEnd(t *testing.T) {
	specs, _ := startAgents(t, 3, core.Config{DisableRateLimit: true})
	ledger := &resultLedger{}
	f, err := New(Config{
		WireBatch:   true,
		BatchSize:   16,
		BatchLinger: 200 * time.Microsecond,
		OnResult:    ledger.observe,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const rules = 300
	chans := make([]<-chan OpResult, 0, rules)
	for i := 1; i <= rules; i++ {
		ch, err := f.InsertRoutedAsync(testRule(i))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("insert %d on %s: %v", i+1, res.Switch, res.Err)
		}
		if res.Result.Latency == 0 {
			t.Fatalf("insert %d: empty result demuxed: %+v", i+1, res.Result)
		}
	}
	if err := f.Barrier(); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot()
	var sum uint64
	for _, sw := range snap.Switches {
		if sw.Stats == nil {
			t.Fatalf("switch %s unreachable", sw.ID)
		}
		sum += sw.Stats.Inserts
	}
	if sum != rules {
		t.Fatalf("Σ per-switch inserts = %d, want %d", sum, rules)
	}
	if total, ok, _, _, _, other := ledger.counts(); total != rules || ok != rules || other != 0 {
		t.Fatalf("ledger total/ok/other = %d/%d/%d, want %d/%d/0", total, ok, other, rules, rules)
	}

	// Delete everything back through the same batched path.
	dchans := make([]<-chan OpResult, 0, rules)
	for i := 1; i <= rules; i++ {
		sw := f.Route(classifier.RuleID(i))
		ch, err := f.DeleteAsync(sw, classifier.RuleID(i))
		if err != nil {
			t.Fatal(err)
		}
		dchans = append(dchans, ch)
	}
	for i, ch := range dchans {
		if res := <-ch; res.Err != nil {
			t.Fatalf("delete %d: %v", i+1, res.Err)
		}
	}
}

// TestFleetWireBatchPreservesPerRuleFIFO is the ordering contract: for any
// one rule, insert→delete (and insert→modify→delete) submitted in order on
// one switch must never reorder, whether the coalescer packs them into the
// same frame or splits them across frames. A reorder is observable as a
// duplicate-rule or unknown-rule rejection, so all-success proves FIFO.
func TestFleetWireBatchPreservesPerRuleFIFO(t *testing.T) {
	cases := []struct {
		name   string
		size   int
		linger time.Duration
	}{
		{"size1", 1, 100 * time.Microsecond},        // every op its own frame
		{"size4-short-linger", 4, time.Microsecond}, // frames split mid-cycle
		{"size64-long-linger", 64, time.Millisecond},
		{"default", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			specs, _ := startAgents(t, 1, core.Config{DisableRateLimit: true})
			f, err := New(Config{
				WireBatch:   true,
				BatchSize:   tc.size,
				BatchLinger: tc.linger,
			}, specs)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			const cycles = 40
			const lanes = 8 // distinct rule IDs churned concurrently
			var chans []<-chan OpResult
			var kinds []string
			submit := func(kind string, ch <-chan OpResult, err error) {
				if err != nil {
					t.Fatal(err)
				}
				chans = append(chans, ch)
				kinds = append(kinds, kind)
			}
			for c := 0; c < cycles; c++ {
				for l := 1; l <= lanes; l++ {
					r := testRule(l)
					ch, err := f.InsertAsync(specs[0].ID, r)
					submit(fmt.Sprintf("cycle %d lane %d insert", c, l), ch, err)
					mod := r
					mod.Action = classifier.Action{Type: classifier.ActionDrop}
					ch, err = f.ModifyAsync(specs[0].ID, mod)
					submit(fmt.Sprintf("cycle %d lane %d modify", c, l), ch, err)
					ch, err = f.DeleteAsync(specs[0].ID, r.ID)
					submit(fmt.Sprintf("cycle %d lane %d delete", c, l), ch, err)
				}
			}
			for i, ch := range chans {
				if res := <-ch; res.Err != nil {
					t.Fatalf("%s reordered or failed: %v", kinds[i], res.Err)
				}
			}
			// The table must be empty again: every insert's delete landed after it.
			st := f.Snapshot().Switches[0].Stats
			if st == nil {
				t.Fatal("switch unreachable in snapshot")
			}
			if occ := st.MainOcc + st.ShadowOcc; occ != 0 {
				t.Fatalf("occupancy = %d after balanced churn, want 0", occ)
			}
		})
	}
}

// TestFleetWireBatchRemoteErrorsDemuxed: per-op rejections inside a batch
// reach exactly the op that caused them as typed remote errors, the
// neighbours in the same frame succeed, and the breaker stays closed — a
// rejected flow-mod means the switch is alive, not faulty.
func TestFleetWireBatchRemoteErrorsDemuxed(t *testing.T) {
	specs, _ := startAgents(t, 1, core.Config{DisableRateLimit: true})
	ledger := &resultLedger{}
	f, err := New(Config{
		WireBatch:   true,
		BatchSize:   32,
		BatchLinger: time.Millisecond,
		OnResult:    ledger.observe,
		Breaker:     BreakerConfig{FailureThreshold: 2, OpenTimeout: 10 * time.Second},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Interleave good inserts with duplicates and unknown deletes so bad ops
	// land mid-frame with successes on both sides.
	if res := f.Insert(specs[0].ID, testRule(1)); res.Err != nil {
		t.Fatal(res.Err)
	}
	var chans []<-chan OpResult
	wantErr := make([]ofwire.ErrorCode, 0, 16)
	for i := 2; i <= 9; i++ {
		ch, err := f.InsertAsync(specs[0].ID, testRule(i))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		wantErr = append(wantErr, 0)
		if i%3 == 0 {
			dup, err := f.InsertAsync(specs[0].ID, testRule(1)) // duplicate of warm-up rule
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, dup)
			wantErr = append(wantErr, ofwire.ErrCodeDuplicateRule)
		}
		if i%4 == 0 {
			del, err := f.DeleteAsync(specs[0].ID, classifier.RuleID(9000+i))
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, del)
			wantErr = append(wantErr, ofwire.ErrCodeUnknownRule)
		}
	}
	for i, ch := range chans {
		res := <-ch
		if wantErr[i] == 0 {
			if res.Err != nil {
				t.Fatalf("op %d: unexpected error %v", i, res.Err)
			}
			continue
		}
		var remote *ofwire.ErrorBody
		if !errors.As(res.Err, &remote) || remote.Code != wantErr[i] {
			t.Fatalf("op %d: err = %v, want remote code %v", i, res.Err, wantErr[i])
		}
	}
	snap := f.Snapshot()
	if snap.Switches[0].Breaker != BreakerClosed {
		t.Fatalf("breaker = %v after per-op rejections, want closed", snap.Switches[0].Breaker)
	}
	if snap.Switches[0].Trips != 0 {
		t.Fatalf("breaker tripped %d times on app-level rejections", snap.Switches[0].Trips)
	}
}

// TestFleetWireBatchCircuitOpen: with the breaker open, batched ops fail
// fast with the typed error and every op in the gathered batch is completed.
func TestFleetWireBatchCircuitOpen(t *testing.T) {
	specs, servers := startAgents(t, 1, core.Config{DisableRateLimit: true})
	ledger := &resultLedger{}
	f, err := New(Config{
		WireBatch:     true,
		BatchSize:     8,
		BatchLinger:   200 * time.Microsecond,
		OnResult:      ledger.observe,
		ProbeInterval: 20 * time.Millisecond,
		DialTimeout:   500 * time.Millisecond,
		Breaker:       BreakerConfig{FailureThreshold: 2, OpenTimeout: 10 * time.Second},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if res := f.Insert(specs[0].ID, testRule(1)); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := servers[0].Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.Snapshot().Switches[0].Breaker != BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened")
		}
		time.Sleep(10 * time.Millisecond)
	}

	const ops = 12
	chans := make([]<-chan OpResult, ops)
	for i := 0; i < ops; i++ {
		ch, err := f.InsertAsync(specs[0].ID, testRule(100+i))
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	var open *CircuitOpenError
	for i, ch := range chans {
		select {
		case res := <-ch:
			if !errors.As(res.Err, &open) || open.Switch != specs[0].ID {
				t.Fatalf("op %d err = %v, want CircuitOpenError", i, res.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("op %d never completed with the circuit open", i)
		}
	}
}

// TestChaosBatchedWireConvergence is the chaos-style convergence gate for
// the batched wire path: 40 seeded fault schedules (connection resets and
// mid-batch partial writes, injected at the dial seam) are replayed against
// a fleet coalescing ops into vectored frames. Ops fail, connections die
// mid-frame, batches land ambiguously — and once the faults lift, a
// level-triggered diff-and-apply loop must drive the switch to exactly the
// desired rule set. A torn batch (a prefix of a frame applied), a lost
// completion, or a reordered insert→delete would all surface as a diff that
// never reaches zero.
func TestChaosBatchedWireConvergence(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for s := 0; s < seeds; s++ {
		seed := int64(97 + 31*s)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runBatchChaosSeed(t, seed)
		})
	}
}

func runBatchChaosSeed(t *testing.T, seed int64) {
	specs, _ := startAgents(t, 1, core.Config{DisableRateLimit: true})
	sw := specs[0].ID
	wire := faultinject.NewWire(faultinject.WireConfig{
		Seed:            seed,
		ResetProb:       0.04,
		PartialProb:     0.04,
		PartialMidFrame: true,
	})
	var faulty atomic.Bool
	faulty.Store(true)
	cfg := Config{
		WireBatch:   true,
		BatchSize:   8,
		BatchLinger: 200 * time.Microsecond,
		Dial: func(network, addr string) (net.Conn, error) {
			if faulty.Load() {
				return wire.Dial(network, addr)
			}
			return net.DialTimeout(network, addr, time.Second)
		},
		OpTimeout:     2 * time.Second,
		ProbeInterval: 10 * time.Millisecond,
		DialTimeout:   500 * time.Millisecond,
		Breaker:       BreakerConfig{FailureThreshold: 2, OpenTimeout: 20 * time.Millisecond},
	}
	// The constructor's handshake runs through the faulty dial too; a seed
	// whose schedule kills it gets bounded retries (each consumes further
	// decisions from the same deterministic stream).
	var f *Fleet
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if f, err = New(cfg, specs); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("fleet never constructed under seed %d: %v", seed, err)
	}
	defer f.Close()

	// Churn under fire: inserts with interleaved deletes, batched on the
	// wire, with the fault plan cutting connections out from under them.
	// Per-op outcomes are unknowable (a batch may apply and lose its
	// reply); the desired map is the ground truth the switch must reach.
	rng := rand.New(rand.NewSource(seed))
	desired := make(map[classifier.RuleID]classifier.Rule)
	var chans []<-chan OpResult
	for i := 1; i <= 24; i++ {
		r := testRule(i)
		desired[r.ID] = r
		if ch, err := f.InsertAsync(sw, r); err == nil {
			chans = append(chans, ch)
		}
		if rng.Intn(3) == 0 {
			id := classifier.RuleID(1 + rng.Intn(i))
			delete(desired, id)
			if ch, err := f.DeleteAsync(sw, id); err == nil {
				chans = append(chans, ch)
			}
		}
	}
	for _, ch := range chans { // every op completes exactly once, pass or fail
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("op never completed under faults")
		}
	}

	// Lift the faults and cut the (possibly wrapped) connection so the
	// probe loop redials cleanly.
	faulty.Store(false)
	f.workers[sw].currentClient().Close() //nolint:errcheck

	// Level-triggered convergence: observe, diff against desired, apply,
	// repeat. Transient errors (breaker reopening, dead client) just mean
	// another round.
	want := make([]classifier.Rule, 0, len(desired))
	for _, r := range desired {
		want = append(want, r)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		observed, err := f.Observe(sw)
		if err == nil {
			plan := intent.Diff(want, observed)
			if len(plan) == 0 {
				return // converged: observed == desired, exactly
			}
			f.Apply(sw, plan) //nolint:errcheck // a failed plan is the next round's diff
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d never converged: observe err=%v", seed, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetApplyFillsWireBatchFrames: a reconcile plan handed to Apply is
// queued as a whole, so a WireBatch worker packs it into ≈N/BatchSize
// frames. Applied one awaited op at a time, every op would wait out a
// BatchLinger alone and the plan would cost N frames.
func TestFleetApplyFillsWireBatchFrames(t *testing.T) {
	specs, _ := startAgents(t, 1, core.Config{DisableRateLimit: true})
	sw := specs[0].ID
	const rules, batch = 256, 32
	f, err := New(Config{
		WireBatch:     true,
		BatchSize:     batch,
		QueueDepth:    rules,
		BatchLinger:   5 * time.Millisecond,
		ProbeInterval: time.Hour, // keep echoes out of the round-trip count
		Obs:           obs.NewRegistry(),
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	desired := make([]classifier.Rule, rules)
	for i := range desired {
		desired[i] = testRule(i + 1)
	}
	roundTrips := f.workers[sw].rtt
	before := roundTrips.Count()
	if err := f.Apply(sw, intent.Diff(desired, nil)); err != nil {
		t.Fatal(err)
	}
	frames := roundTrips.Count() - before
	if frames < rules/batch || frames > rules/4 {
		t.Fatalf("%d inserts took %d frames, want about %d", rules, frames, rules/batch)
	}
	t.Logf("%d inserts in %d frames (full frames: %d)", rules, frames, rules/batch)

	observed, err := f.Observe(sw)
	if err != nil {
		t.Fatal(err)
	}
	if plan := intent.Diff(desired, observed); len(plan) != 0 {
		t.Fatalf("switch differs from the applied plan by %d ops", len(plan))
	}
}

// TestFleetApplyDeletesBeforeInserts: a plan's deletes are confirmed before
// its first insert is submitted, so a plan that swaps a full table's
// contents never asks the switch for more entries than it has. Per-op
// dispatch issues a batch concurrently, so only the await keeps the order.
func TestFleetApplyDeletesBeforeInserts(t *testing.T) {
	specs, _ := startAgents(t, 1, core.Config{DisableRateLimit: true})
	sw := specs[0].ID
	var mu sync.Mutex
	var order []bool // per completion, in order: was it an old rule (a delete)?
	f, err := New(Config{
		BatchSize: 16,
		OnResult: func(res OpResult) {
			mu.Lock()
			order = append(order, res.RuleID <= 8)
			mu.Unlock()
		},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var old, next []classifier.Rule
	for i := 1; i <= 8; i++ {
		old = append(old, testRule(i))
		next = append(next, testRule(i+8))
	}
	if err := f.Apply(sw, intent.Diff(old, nil)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	order = order[:0]
	mu.Unlock()
	if err := f.Apply(sw, intent.Diff(next, old)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 16 {
		t.Fatalf("%d completions, want 16", len(order))
	}
	for i, del := range order {
		if del != (i < 8) {
			t.Fatalf("completion %d out of phase: deletes-first order = %v", i, order)
		}
	}
}
