package fleet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/ofwire"
	"hermes/internal/tcam"
	"hermes/internal/testutil"
)

// startAgents launches n in-process Hermes agent daemons on loopback. It
// also arms the goroutine-leak checker: fleet workers, client read loops
// and server handlers must all be joined by the time the test's cleanups
// have run.
func startAgents(t *testing.T, n int, cfg core.Config) ([]SwitchSpec, []*ofwire.AgentServer) {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	if cfg.Guarantee == 0 {
		cfg.Guarantee = 5 * time.Millisecond
	}
	specs := make([]SwitchSpec, n)
	servers := make([]*ofwire.AgentServer, n)
	for i := 0; i < n; i++ {
		srv, err := ofwire.NewAgentServer(fmt.Sprintf("sw-%d", i), tcam.Pica8P3290, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Logf = t.Logf
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(lis) //nolint:errcheck
		t.Cleanup(func() { srv.Close() })
		specs[i] = SwitchSpec{ID: fmt.Sprintf("sw-%d", i), Addr: lis.Addr().String()}
		servers[i] = srv
	}
	return specs, servers
}

func testRule(id int) classifier.Rule {
	return classifier.Rule{
		ID:       classifier.RuleID(id),
		Match:    classifier.DstMatch(classifier.NewPrefix(uint32(id)<<12|0x0A000000, 28)),
		Priority: int32(id%10 + 1),
		Action:   classifier.Action{Type: classifier.ActionForward, Port: id % 48},
	}
}

// TestFleetDrivesAgentsConcurrently: 4 agents, 200 routed insertions in
// flight at once, merged metrics must balance (fleet total == Σ
// per-switch).
func TestFleetDrivesAgentsConcurrently(t *testing.T) {
	specs, _ := startAgents(t, 4, core.Config{DisableRateLimit: true})
	f, err := New(Config{BatchSize: 8}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const rules = 200
	chans := make([]<-chan OpResult, 0, rules)
	for i := 1; i <= rules; i++ {
		ch, err := f.InsertRoutedAsync(testRule(i))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatalf("insert %d on %s: %v", i+1, res.Switch, res.Err)
		}
	}
	if err := f.Barrier(); err != nil {
		t.Fatal(err)
	}

	snap := f.Snapshot()
	if snap.Reachable != 4 || len(snap.Switches) != 4 {
		t.Fatalf("reachable = %d/%d", snap.Reachable, len(snap.Switches))
	}
	var sum uint64
	for _, sw := range snap.Switches {
		if sw.Stats == nil {
			t.Fatalf("switch %s unreachable in snapshot", sw.ID)
		}
		if sw.Stats.Inserts == 0 {
			t.Errorf("switch %s received no inserts; routing is not spreading", sw.ID)
		}
		if !sw.Healthy || sw.Breaker != BreakerClosed {
			t.Errorf("switch %s unhealthy: breaker=%v", sw.ID, sw.Breaker)
		}
		sum += sw.Stats.Inserts
	}
	if sum != rules {
		t.Errorf("Σ per-switch inserts = %d, want %d", sum, rules)
	}
	if snap.Total.Inserts != sum {
		t.Errorf("merged total %d != per-switch sum %d", snap.Total.Inserts, sum)
	}
	if got := snap.All.Count(); got != rules || snap.Guaranteed.Count() > got {
		t.Errorf("latency samples all/guaranteed = %d/%d, want %d/≤%d",
			got, snap.Guaranteed.Count(), rules, rules)
	}
	if snap.Table().String() == "" {
		t.Error("empty telemetry table")
	}

	// Routing is consistent: replaying the routing decision matches.
	for i := 1; i <= rules; i++ {
		if a, b := f.Route(classifier.RuleID(i)), f.Route(classifier.RuleID(i)); a != b {
			t.Fatalf("route %d unstable: %s vs %s", i, a, b)
		}
	}
}

// TestFleetCircuitBreaker: killing one agent server makes its worker fail
// fast while the other switches keep completing flow-mods; restarting the
// agent heals the circuit via the probe loop.
func TestFleetCircuitBreaker(t *testing.T) {
	specs, servers := startAgents(t, 3, core.Config{DisableRateLimit: true})
	f, err := New(Config{
		ProbeInterval: 20 * time.Millisecond,
		DialTimeout:   500 * time.Millisecond,
		Breaker:       BreakerConfig{FailureThreshold: 2, OpenTimeout: 100 * time.Millisecond},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 1; i <= 3; i++ {
		if res := f.Insert(specs[i-1].ID, testRule(i)); res.Err != nil {
			t.Fatalf("warmup insert on %s: %v", specs[i-1].ID, res.Err)
		}
	}

	// Kill switch 0.
	if err := servers[0].Close(); err != nil {
		t.Fatal(err)
	}

	// The health probes must trip the breaker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := f.Snapshot()
		if snap.Switches[0].Breaker == BreakerOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened; state=%v", snap.Switches[0].Breaker)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Operations on the dead switch fail fast with the typed error...
	start := time.Now()
	res := f.Insert(specs[0].ID, testRule(100))
	elapsed := time.Since(start)
	var open *CircuitOpenError
	if !errors.As(res.Err, &open) || open.Switch != specs[0].ID {
		t.Fatalf("dead-switch insert err = %v, want CircuitOpenError", res.Err)
	}
	if elapsed > time.Second {
		t.Errorf("fail-fast took %v", elapsed)
	}
	// ...while the other switches keep completing flow-mods.
	for i := 0; i < 20; i++ {
		id := 200 + i
		sw := specs[1+i%2].ID
		if res := f.Insert(sw, testRule(id)); res.Err != nil {
			t.Fatalf("healthy switch %s insert failed during outage: %v", sw, res.Err)
		}
	}
	snap := f.Snapshot()
	if snap.Reachable != 2 {
		t.Errorf("reachable = %d, want 2", snap.Reachable)
	}
	if snap.Switches[0].Trips == 0 {
		t.Error("no recorded breaker trips for the dead switch")
	}

	// Restart the agent on the same address; the probe loop must redial
	// and close the circuit.
	srv, err := ofwire.NewAgentServer("sw-0b", tcam.Pica8P3290,
		core.Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	lis, err := net.Listen("tcp", specs[0].Addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", specs[0].Addr, err)
	}
	go srv.Serve(lis) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })

	deadline = time.Now().Add(10 * time.Second)
	for {
		res := f.Insert(specs[0].ID, testRule(300))
		if res.Err == nil {
			break
		}
		if !errors.As(res.Err, &open) {
			t.Fatalf("unexpected error during recovery: %v", res.Err)
		}
		if time.Now().After(deadline) {
			t.Fatal("circuit never closed after agent restart")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// divertingServer is a scripted wire agent: the first divertTimes insert
// attempts of every rule are pushed off the guaranteed path, as the Gate
// Keeper does when rate-limited or shadow-full.
type divertingServer struct {
	divertTimes int

	mu       sync.Mutex
	attempts map[uint64]int
	deletes  int
}

func (d *divertingServer) serve(t *testing.T, lis net.Listener) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		go d.handle(t, conn)
	}
}

func (d *divertingServer) handle(t *testing.T, conn net.Conn) {
	defer conn.Close()
	if err := ofwire.WriteMessage(conn, &ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeHello}}); err != nil {
		return
	}
	if _, err := ofwire.ReadMessage(conn); err != nil {
		return
	}
	for {
		req, err := ofwire.ReadMessage(conn)
		if err != nil {
			return
		}
		var resp *ofwire.Message
		switch req.Header.Type {
		case ofwire.TypeEchoRequest:
			resp = &ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeEchoReply}, Raw: req.Raw}
		case ofwire.TypeBarrierRequest:
			resp = &ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeBarrierReply}}
		case ofwire.TypeStatsRequest:
			d.mu.Lock()
			var total uint64
			for _, n := range d.attempts {
				total += uint64(n)
			}
			d.mu.Unlock()
			resp = &ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeStatsReply},
				Stats: &ofwire.Stats{Inserts: total}}
		case ofwire.TypeFlowMod:
			fm := req.FlowMod
			rep := &ofwire.FlowModReply{RuleID: fm.RuleID, LatencyNS: uint64(50 * time.Microsecond)}
			if fm.Command == ofwire.FlowAdd {
				d.mu.Lock()
				d.attempts[fm.RuleID]++
				diverted := d.attempts[fm.RuleID] <= d.divertTimes
				d.mu.Unlock()
				if diverted {
					rep.Guaranteed, rep.Path = false, uint8(core.PathMain)
				} else {
					rep.Guaranteed, rep.Path = true, uint8(core.PathShadow)
				}
			} else if fm.Command == ofwire.FlowDelete {
				d.mu.Lock()
				d.deletes++
				d.mu.Unlock()
				rep.Guaranteed = true
			}
			resp = &ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeFlowModReply}, FlowModReply: rep}
		default:
			continue
		}
		resp.Header.XID = req.Header.XID
		if err := ofwire.WriteMessage(conn, resp); err != nil {
			return
		}
	}
}

func startDiverting(t *testing.T, divertTimes int) (SwitchSpec, *divertingServer) {
	t.Helper()
	d := &divertingServer{divertTimes: divertTimes, attempts: make(map[uint64]int)}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.serve(t, lis)
	t.Cleanup(func() { lis.Close() })
	return SwitchSpec{ID: "divert-0", Addr: lis.Addr().String()}, d
}

// TestFleetRetriesDivertedInserts: a diverted insertion is deleted, backed
// off, and reissued until it lands on the guaranteed path.
func TestFleetRetriesDivertedInserts(t *testing.T) {
	spec, d := startDiverting(t, 2)
	f, err := New(Config{
		RetryDiverted: true,
		Retry:         RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		Seed:          7,
	}, []SwitchSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const rules = 10
	for i := 1; i <= rules; i++ {
		res := f.Insert(spec.ID, testRule(i))
		if res.Err != nil {
			t.Fatalf("insert %d: %v", i, res.Err)
		}
		if !res.Result.Guaranteed {
			t.Fatalf("insert %d still diverted after retries: %+v", i, res.Result)
		}
		if res.Attempts != 3 { // 2 diverted attempts + 1 success
			t.Errorf("insert %d took %d attempts, want 3", i, res.Attempts)
		}
	}
	d.mu.Lock()
	deletes := d.deletes
	d.mu.Unlock()
	if deletes != 2*rules {
		t.Errorf("deletes = %d, want %d (one per diverted attempt)", deletes, 2*rules)
	}
	snap := f.Snapshot()
	sw := snap.Switches[0]
	if sw.Retries != 2*rules || sw.Diverted != 2*rules {
		t.Errorf("telemetry retries=%d diverted=%d, want %d", sw.Retries, sw.Diverted, 2*rules)
	}
}

// TestFleetRetryBudgetExhausted: a permanently diverting switch consumes
// the attempt budget and surfaces the final (unguaranteed) result.
func TestFleetRetryBudgetExhausted(t *testing.T) {
	spec, _ := startDiverting(t, 1000)
	f, err := New(Config{
		RetryDiverted: true,
		Retry:         RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		Seed:          7,
	}, []SwitchSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	res := f.Insert(spec.ID, testRule(1))
	if res.Err != nil {
		t.Fatalf("insert: %v", res.Err)
	}
	if res.Result.Guaranteed {
		t.Fatal("impossible guarantee")
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", res.Attempts)
	}
}

// TestFleetCloseFailsQueuedOps: closing the fleet unblocks queued and
// in-flight operations with typed errors instead of hanging.
func TestFleetCloseFailsQueuedOps(t *testing.T) {
	// A peer that never answers flow-mods wedges the worker's batch.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				ofwire.WriteMessage(conn, &ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeHello}}) //nolint:errcheck
				for {
					req, err := ofwire.ReadMessage(conn)
					if err != nil {
						return
					}
					if req.Header.Type == ofwire.TypeEchoRequest {
						resp := &ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeEchoReply,
							XID: req.Header.XID}, Raw: req.Raw}
						if err := ofwire.WriteMessage(conn, resp); err != nil {
							return
						}
					}
					// Swallow everything else.
				}
			}(conn)
		}
	}()

	f, err := New(Config{QueueDepth: 16, BatchSize: 1, ProbeInterval: time.Hour},
		[]SwitchSpec{{ID: "wedged", Addr: lis.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}

	const ops = 6
	chans := make([]<-chan OpResult, ops)
	for i := 0; i < ops; i++ {
		ch, err := f.InsertAsync("wedged", testRule(i+1))
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	time.Sleep(50 * time.Millisecond) // let the first op wedge in flight

	done := make(chan struct{})
	go func() {
		f.Close() //nolint:errcheck
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a wedged switch")
	}
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err == nil {
				t.Errorf("op %d succeeded on a wedged switch", i)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("op %d never completed after Close", i)
		}
	}
	// Post-close submissions fail immediately.
	if _, err := f.InsertAsync("wedged", testRule(99)); !errors.Is(err, ErrFleetClosed) {
		t.Errorf("post-close submit err = %v", err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestFleetValidation covers constructor and routing edge cases.
func TestFleetValidation(t *testing.T) {
	if _, err := New(Config{}, nil); !errors.Is(err, ErrNoSwitches) {
		t.Errorf("empty fleet err = %v", err)
	}
	if _, err := New(Config{DialTimeout: 100 * time.Millisecond},
		[]SwitchSpec{{ID: "x", Addr: "127.0.0.1:1"}}); err == nil {
		t.Error("dial to dead port succeeded")
	}
	specs, _ := startAgents(t, 2, core.Config{DisableRateLimit: true})
	dup := []SwitchSpec{specs[0], {ID: specs[0].ID, Addr: specs[1].Addr}}
	if _, err := New(Config{}, dup); err == nil {
		t.Error("duplicate switch id accepted")
	}
	f, err := New(Config{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if res := f.Insert("no-such-switch", testRule(1)); !errors.Is(res.Err, ErrUnknownSwitch) {
		t.Errorf("unknown switch err = %v", res.Err)
	}
	if got := f.Size(); got != 2 {
		t.Errorf("size = %d", got)
	}
	if got := f.Switches(); len(got) != 2 || got[0] != "sw-0" || got[1] != "sw-1" {
		t.Errorf("switches = %v", got)
	}
	// Delete/Modify round-trip through the fleet API.
	if res := f.Insert("sw-0", testRule(5)); res.Err != nil {
		t.Fatal(res.Err)
	}
	mod := testRule(5)
	mod.Action = classifier.Action{Type: classifier.ActionDrop}
	if res := f.Modify("sw-0", mod); res.Err != nil {
		t.Fatalf("modify: %v", res.Err)
	}
	if res := f.Delete("sw-0", 5); res.Err != nil {
		t.Fatalf("delete: %v", res.Err)
	}
}

// resultLedger is an OnResult hook that tallies completions by outcome,
// the way a load generator's ledger does.
type resultLedger struct {
	mu          sync.Mutex
	total       int
	ok          int
	rejected    int // remote typed errors
	circuitOpen int
	closed      int
	other       int
}

func (l *resultLedger) observe(res OpResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	var remote *ofwire.ErrorBody
	var open *CircuitOpenError
	switch {
	case res.Err == nil:
		l.ok++
	case errors.As(res.Err, &remote):
		l.rejected++
	case errors.As(res.Err, &open):
		l.circuitOpen++
	case errors.Is(res.Err, ErrFleetClosed):
		l.closed++
	default:
		l.other++
	}
}

func (l *resultLedger) counts() (total, ok, rejected, circuitOpen, closed, other int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total, l.ok, l.rejected, l.circuitOpen, l.closed, l.other
}

// TestFleetOnResultObservesEveryOp: the completion hook must fire exactly
// once per submitted op on every path — successes, remote rejections,
// circuit-open fast failures — and always before the result reaches the
// submitter's channel.
func TestFleetOnResultObservesEveryOp(t *testing.T) {
	specs, servers := startAgents(t, 2, core.Config{DisableRateLimit: true})
	ledger := &resultLedger{}
	f, err := New(Config{
		OnResult:      ledger.observe,
		ProbeInterval: 20 * time.Millisecond,
		DialTimeout:   500 * time.Millisecond,
		Breaker:       BreakerConfig{FailureThreshold: 2, OpenTimeout: 10 * time.Second},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const n = 40
	for i := 1; i <= n; i++ {
		if res := f.Insert(specs[i%2].ID, testRule(i)); res.Err != nil {
			t.Fatalf("insert %d: %v", i, res.Err)
		}
	}
	// Duplicate inserts: remote rejections, observed as such.
	for i := 1; i <= 5; i++ {
		if res := f.Insert(specs[i%2].ID, testRule(i)); res.Err == nil {
			t.Fatalf("duplicate insert %d unexpectedly succeeded", i)
		}
	}
	total, ok, rejected, _, _, other := ledger.counts()
	if total != n+5 || ok != n || rejected != 5 || other != 0 {
		t.Fatalf("ledger total/ok/rejected/other = %d/%d/%d/%d, want %d/%d/5/0",
			total, ok, rejected, other, n+5, n)
	}

	// Kill switch 0 and wait for the breaker to trip: the circuit-open fast
	// path bypasses the worker queue and must still report to the hook.
	if err := servers[0].Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if f.Snapshot().Switches[0].Breaker == BreakerOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var open *CircuitOpenError
	if res := f.Insert(specs[0].ID, testRule(500)); !errors.As(res.Err, &open) {
		t.Fatalf("dead-switch insert err = %v, want CircuitOpenError", res.Err)
	}
	if _, _, _, circuitOpen, _, _ := ledger.counts(); circuitOpen != 1 {
		t.Fatalf("circuit-open completions = %d, want 1", circuitOpen)
	}
}

// TestFleetOnResultObservesShutdownDrain: ops still queued when Close cuts
// the fleet down are failed with ErrFleetClosed, and the hook must see each
// of those exactly once too — a loadgen ledger may not leak in-flight ops.
func TestFleetOnResultObservesShutdownDrain(t *testing.T) {
	// A peer that answers echoes but swallows flow-mods wedges the worker.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				ofwire.WriteMessage(conn, &ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeHello}}) //nolint:errcheck
				for {
					req, err := ofwire.ReadMessage(conn)
					if err != nil {
						return
					}
					if req.Header.Type == ofwire.TypeEchoRequest {
						resp := &ofwire.Message{Header: ofwire.Header{Type: ofwire.TypeEchoReply,
							XID: req.Header.XID}, Raw: req.Raw}
						if err := ofwire.WriteMessage(conn, resp); err != nil {
							return
						}
					}
				}
			}(conn)
		}
	}()

	ledger := &resultLedger{}
	f, err := New(Config{OnResult: ledger.observe, QueueDepth: 16, BatchSize: 1,
		ProbeInterval: time.Hour},
		[]SwitchSpec{{ID: "wedged", Addr: lis.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}

	const ops = 6
	chans := make([]<-chan OpResult, ops)
	for i := 0; i < ops; i++ {
		ch, err := f.InsertAsync("wedged", testRule(i+1))
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	time.Sleep(50 * time.Millisecond) // let the first op wedge in flight
	f.Close()                         //nolint:errcheck
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err == nil {
				t.Errorf("op %d succeeded on a wedged switch", i)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("op %d never completed after Close", i)
		}
	}
	total, ok, rejected, circuitOpen, closed, other := ledger.counts()
	if total != ops || ok != 0 {
		t.Fatalf("ledger total/ok = %d/%d, want %d/0", total, ok, ops)
	}
	// How each op fails depends on timing: in-flight ops die with wire
	// errors, queued ops drain with ErrFleetClosed — unless the op
	// timeout fires first and the accumulated failures open the breaker,
	// in which case the remainder complete with CircuitOpenError. The
	// contract is conservation, not the split: every op is observed
	// exactly once, never as a success, and never as a remote rejection
	// (the switch swallowed the flow-mods, it did not answer them).
	if rejected != 0 {
		t.Fatalf("rejected = %d on a switch that never replied", rejected)
	}
	if circuitOpen+closed+other != ops {
		t.Fatalf("circuitOpen+closed+other = %d+%d+%d, want %d in total",
			circuitOpen, closed, other, ops)
	}
}
