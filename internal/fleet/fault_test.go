package fleet

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/faultinject"
	"hermes/internal/intent"
	"hermes/internal/ofwire"
	"hermes/internal/testutil"
)

// waitUntil polls cond until it holds or ten seconds pass.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// powerCycle kills the agent behind specs[i], waits for its circuit to
// open, and brings an empty replacement up on the same address.
func powerCycle(t *testing.T, f *Fleet, spec SwitchSpec, srv *ofwire.AgentServer) {
	t.Helper()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "breaker open after switch death", func() bool {
		st, _ := f.BreakerState(spec.ID)
		return st == BreakerOpen
	})
	restartAgent(t, spec.Addr)
}

// TestFleetPowerCycleRepairedByIntent: a switch restart wipes its tables.
// The fleet only redials (through the Dial seam) and reports; the attached
// intent controller hears the reconnect, observes the empty switch and
// reinstalls its partition — and a rule deleted from the store stays
// deleted. The trigger fires into a closed circuit: from the reconnect to
// convergence there is no requeue and not one failed op.
func TestFleetPowerCycleRepairedByIntent(t *testing.T) {
	specs, servers := startAgents(t, 1, core.Config{DisableRateLimit: true})
	sw := specs[0].ID
	wire := faultinject.NewWire(faultinject.WireConfig{Seed: 9}) // passthrough plan
	f, err := New(Config{
		Dial:          wire.Dial,
		OpTimeout:     2 * time.Second,
		ProbeInterval: 20 * time.Millisecond,
		DialTimeout:   500 * time.Millisecond,
		Breaker:       BreakerConfig{FailureThreshold: 2, OpenTimeout: 50 * time.Millisecond},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	start := time.Now()
	store := intent.NewStore(f.Route)
	trace := intent.NewTrace()
	ctrl, err := f.NewController(intent.Config{
		Store: store,
		Now:   func() time.Duration { return time.Since(start) },
		Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Run()
	defer ctrl.Close()

	for i := 1; i <= 5; i++ {
		store.Set(testRule(i))
	}
	store.Delete(5) // must not come back with the others
	waitUntil(t, "initial convergence", func() bool {
		g, ok := ctrl.ConvergedGeneration(sw)
		return ok && g == store.Generation()
	})

	powerCycle(t, f, specs[0], servers[0])

	// The records from the reconnect trigger up to the converge it led to.
	var recovery []intent.Record
	waitUntil(t, "convergence after the reconnect trigger", func() bool {
		recs := trace.Records()
		for i, r := range recs {
			if r.Kind != intent.TraceDirty || r.Aux != uint64(intent.DirtyReconnect) {
				continue
			}
			for j, c := range recs[i:] {
				if c.Kind == intent.TraceConverge {
					recovery = recs[i : i+j+1]
					return true
				}
			}
		}
		return false
	})
	for _, r := range recovery {
		if r.Kind == intent.TraceRequeue {
			t.Errorf("reconcile requeued between reconnect and convergence: %+v", r)
		}
	}
	if plan := recovery[len(recovery)-1].Aux; plan != 4 {
		t.Errorf("recovery plan had %d ops, want the 4 lost rules", plan)
	}

	observed, err := f.ObservedRules(sw)
	if err != nil {
		t.Fatal(err)
	}
	desired, _ := store.Desired(sw)
	if len(observed) != 4 || len(intent.Diff(desired, observed)) != 0 {
		t.Errorf("restarted switch holds %v, want rules 1-4", observed)
	}

	snap := f.Snapshot()
	s0 := snap.Switches[0]
	if s0.Reconnects == 0 {
		t.Error("no reconnects recorded")
	}
	if s0.OpsFailed != 0 {
		t.Errorf("%d ops failed; the reconnect trigger must find a closed circuit", s0.OpsFailed)
	}
	if s0.LastFault == "" {
		t.Error("no last-fault cause recorded for the outage")
	}
	if !strings.Contains(snap.Table().String(), "reconn") {
		t.Error("telemetry table lacks the reconnect column")
	}
	if n := wire.Counts().Total(); n != 0 {
		t.Errorf("passthrough wire plan injected %d faults", n)
	}
}

// TestFleetTransportReplaysNothing is the transport contract: with no
// controller attached a power-cycled switch comes back empty and stays
// empty, and the fleet carries later ops to it as if nothing had happened.
func TestFleetTransportReplaysNothing(t *testing.T) {
	specs, servers := startAgents(t, 1, core.Config{DisableRateLimit: true})
	sw := specs[0].ID
	reconnected := make(chan string, 1) // one reconnect is all the test waits for
	f, err := New(Config{
		ProbeInterval: 20 * time.Millisecond,
		DialTimeout:   500 * time.Millisecond,
		Breaker:       BreakerConfig{FailureThreshold: 2, OpenTimeout: 50 * time.Millisecond},
		OnReconnect: func(id string) {
			select {
			case reconnected <- id:
			default:
			}
		},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 1; i <= 5; i++ {
		if res := f.Insert(sw, testRule(i)); res.Err != nil {
			t.Fatalf("insert %d: %v", i, res.Err)
		}
	}
	powerCycle(t, f, specs[0], servers[0])
	select {
	case <-reconnected:
	case <-time.After(10 * time.Second):
		t.Fatal("switch never reconnected")
	}

	// OnReconnect fires into a closed circuit: the very next request works.
	observed, err := f.ObservedRules(sw)
	if err != nil {
		t.Fatalf("observe right after the reconnect: %v", err)
	}
	if len(observed) != 0 {
		t.Fatalf("restarted switch holds %v; the fleet replayed rules it does not own", observed)
	}
	if res := f.Insert(sw, testRule(6)); res.Err != nil {
		t.Fatalf("insert after reconnect: %v", res.Err)
	}
	observed, err = f.ObservedRules(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(observed) != 1 || observed[0] != testRule(6) {
		t.Fatalf("switch holds %v, want only rule 6", observed)
	}
}

// dropReplyConn, once armed, kills the connection instead of delivering the
// next bytes the switch sends. With health probes off the only thing the
// switch can be sending is its reply to the flow-mod in flight: the op was
// applied and is never confirmed.
type dropReplyConn struct {
	net.Conn
	armed *atomic.Bool
}

func (c *dropReplyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.armed.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, errors.New("injected reset between send and reply")
	}
	return n, err
}

// TestFleetAppliedButUnconfirmed: the connection dies after the switch
// applied an insert and before the reply arrived. The fleet kept no record
// either way, so nothing is replayed on reconnect; the desired set did not
// change, the switch already matches it, and the next diff is empty — no
// duplicate-rule rejection anywhere.
func TestFleetAppliedButUnconfirmed(t *testing.T) {
	specs, _ := startAgents(t, 1, core.Config{DisableRateLimit: true})
	sw := specs[0].ID
	var armed atomic.Bool
	ledger := &resultLedger{}
	f, err := New(Config{
		Dial: func(network, addr string) (net.Conn, error) {
			conn, err := net.DialTimeout(network, addr, time.Second)
			if err != nil {
				return nil, err
			}
			return &dropReplyConn{Conn: conn, armed: &armed}, nil
		},
		ProbeInterval: time.Hour, // the test runs the one probe itself
		OnResult:      ledger.observe,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	desired := []classifier.Rule{testRule(1), testRule(2), testRule(3)}
	if err := f.Apply(sw, intent.Diff(desired[:2], nil)); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	if err := f.Apply(sw, intent.Diff(desired, desired[:2])); err == nil {
		t.Fatal("the insert whose reply was cut reported success")
	}
	f.workers[sw].probe() // redial
	if n := f.Snapshot().Switches[0].Reconnects; n != 1 {
		t.Fatalf("reconnects = %d, want 1", n)
	}

	observed, err := f.Observe(sw)
	if err != nil {
		t.Fatal(err)
	}
	if plan := intent.Diff(desired, observed); len(plan) != 0 {
		t.Fatalf("diff after the unconfirmed insert = %+v, want empty", plan)
	}
	total, ok, rejected, _, _, _ := ledger.counts()
	if total != 3 || ok != 2 || rejected != 0 {
		t.Fatalf("ledger total/ok/rejected = %d/%d/%d, want 3/2/0", total, ok, rejected)
	}
}

// TestFleetBreakerHalfOpenClosesAfterInjectedFaults: with every redial
// routed through a fault plan that resets the connection, health probes
// keep failing and the circuit cycles open → half-open → open; once the
// injected faults stop, the next half-open probe redials cleanly and closes
// the circuit.
func TestFleetBreakerHalfOpenClosesAfterInjectedFaults(t *testing.T) {
	specs, _ := startAgents(t, 1, core.Config{DisableRateLimit: true})
	wire := faultinject.NewWire(faultinject.WireConfig{Seed: 3, ResetProb: 1})
	var faulty atomic.Bool
	f, err := New(Config{
		Dial: func(network, addr string) (net.Conn, error) {
			if faulty.Load() {
				return wire.Dial(network, addr)
			}
			return net.DialTimeout(network, addr, time.Second)
		},
		ProbeInterval: 10 * time.Millisecond,
		Breaker:       BreakerConfig{FailureThreshold: 1, OpenTimeout: 30 * time.Millisecond},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if res := f.Insert(specs[0].ID, testRule(1)); res.Err != nil {
		t.Fatalf("warmup insert: %v", res.Err)
	}

	// The control channel drops while the fault plan owns redials: every
	// half-open probe's fresh connection is reset during the hello
	// exchange, so the circuit keeps re-opening.
	faulty.Store(true)
	f.workers[specs[0].ID].currentClient().Close() //nolint:errcheck
	deadline := time.Now().Add(10 * time.Second)
	for f.Snapshot().Switches[0].Breaker != BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened under injected resets")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var open *CircuitOpenError
	if res := f.Insert(specs[0].ID, testRule(2)); !errors.As(res.Err, &open) {
		t.Fatalf("open circuit did not fail fast: %v", res.Err)
	}

	// Lift the faults: the next half-open probe must close the circuit.
	faulty.Store(false)
	deadline = time.Now().Add(10 * time.Second)
	for {
		res := f.Insert(specs[0].ID, testRule(3))
		if res.Err == nil {
			break
		}
		if !errors.As(res.Err, &open) {
			t.Fatalf("unexpected error during recovery: %v", res.Err)
		}
		if time.Now().After(deadline) {
			t.Fatal("circuit never closed after faults stopped")
		}
		time.Sleep(10 * time.Millisecond)
	}

	snap := f.Snapshot()
	sw := snap.Switches[0]
	if sw.Breaker != BreakerClosed {
		t.Errorf("breaker = %v after recovery, want closed", sw.Breaker)
	}
	if sw.Trips == 0 {
		t.Error("no breaker trips recorded")
	}
	if wire.Counts().Resets == 0 {
		t.Error("fault plan injected no resets; the test exercised nothing")
	}
	if !strings.Contains(sw.LastFault, "injected connection reset") {
		t.Errorf("last fault = %q, want the injected reset cause", sw.LastFault)
	}
	if sw.Reconnects == 0 {
		t.Error("recovery did not record a reconnect")
	}
}

// TestFleetOpTimeoutFailsWedgedSwitch: OpTimeout bounds flow-mods on a
// switch that accepts the connection but never answers, so the fleet
// surfaces a deadline error instead of wedging the worker forever.
func TestFleetOpTimeoutFailsWedgedSwitch(t *testing.T) {
	testutil.VerifyNoLeaks(t)
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
					// Swallow flow-mods: the wedge OpTimeout must break.
				}
			}(conn)
		}
	}()

	f, err := New(Config{OpTimeout: 100 * time.Millisecond, ProbeInterval: time.Hour},
		[]SwitchSpec{{ID: "wedged", Addr: lis.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	start := time.Now()
	res := f.Insert("wedged", testRule(1))
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("wedged insert err = %v, want deadline exceeded", res.Err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	if fault := f.Snapshot().Switches[0].LastFault; !strings.Contains(fault, "abandoned") {
		t.Errorf("last fault = %q, want the abandoned-request cause", fault)
	}
}
