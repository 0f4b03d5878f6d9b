package driver

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/core"
	"hermes/internal/fleet"
	"hermes/internal/loadgen"
	"hermes/internal/obs"
	"hermes/internal/ofwire"
	"hermes/internal/ofwire/ofwiretest"
	"hermes/internal/tcam"
	"hermes/internal/testutil"
)

// startFleet launches n in-process Hermes agents on loopback, arms the
// goroutine-leak checker, and returns a fleet over them built from cfg,
// closed at cleanup. Health probes stay off the wire, so the control
// channels' RTT histograms count flow-mods alone. The queue depth defaults
// to hermes-loadgen's, deeper than any smoke schedule, so a smoke sheds
// nothing however slowly the agents answer.
func startFleet(t *testing.T, n int, cfg fleet.Config) *fleet.Fleet {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	specs := make([]fleet.SwitchSpec, n)
	for i := range specs {
		srv, err := ofwire.NewAgentServer(fmt.Sprintf("sw-%d", i), tcam.Pica8P3290,
			core.Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true})
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(lis) //nolint:errcheck
		t.Cleanup(func() { srv.Close() })
		specs[i] = fleet.SwitchSpec{ID: fmt.Sprintf("sw-%d", i), Addr: lis.Addr().String()}
	}
	cfg.ProbeInterval = time.Hour
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 4096
	}
	f, err := fleet.New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// wireSeries sums two per-switch control-channel series of the fleet's
// registry over its switches: RTT samples and requests in flight.
func wireSeries(reg *obs.Registry, f *fleet.Fleet) (rttSamples uint64, inflight int64) {
	for _, sw := range f.Switches() {
		lbl := obs.Labels("switch", sw)
		rttSamples += reg.HistogramL("hermes_ofwire_rtt_ns", lbl, "ns", "").Count()
		inflight += reg.GaugeL("hermes_ofwire_inflight", lbl, "").Value()
	}
	return rttSamples, inflight
}

func smokeSchedule(t *testing.T, seed int64) *loadgen.Schedule {
	t.Helper()
	s, err := loadgen.Generate(loadgen.Config{
		Flows:        2000,
		Rate:         100000,
		Arrival:      loadgen.ArrivalPoisson,
		Distinct:     800,
		Hold:         10 * time.Millisecond,
		ClassWeights: []int{3, 1},
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// totals sums the ledger's classes.
func totals(l *loadgen.Ledger) loadgen.ClassStats {
	var t loadgen.ClassStats
	for c := range l.Classes() {
		s := l.Class(c)
		t.Submitted += s.Submitted
		t.Installed += s.Installed
		t.Diverted += s.Diverted
		t.Rejected += s.Rejected
		t.Lost += s.Lost
	}
	return t
}

// TestRunWireSmoke is the end-to-end contract: an open-loop replay over a
// per-op fleet completes every scheduled operation, conserves the ledger,
// drains every request, records one wire round trip per operation, and
// yields a verdict that passes a zero-loss SLO.
func TestRunWireSmoke(t *testing.T) {
	reg := obs.NewRegistry()
	f := startFleet(t, 2, fleet.Config{Obs: reg})

	s := smokeSchedule(t, 42)
	led := loadgen.NewLedger(2)
	rep, err := Run(context.Background(), s, f, led, Config{})
	if err != nil {
		t.Fatal(err)
	}

	tot := totals(led)
	if got, want := tot.Submitted, uint64(len(s.Events)); got != want {
		t.Fatalf("submitted = %d, want every scheduled op (%d)", got, want)
	}
	if tot.Completed() != tot.Submitted {
		t.Fatalf("completed %d != submitted %d: ops leaked", tot.Completed(), tot.Submitted)
	}
	if tot.Rejected != 0 || tot.Lost != 0 {
		t.Fatalf("rejected/lost = %d/%d on a healthy in-process target", tot.Rejected, tot.Lost)
	}
	if rep.Shed != 0 {
		t.Fatalf("shed %d ops at this modest rate", rep.Shed)
	}
	rtt, inflight := wireSeries(reg, f)
	if inflight != 0 {
		t.Fatalf("%d requests still in flight after drain", inflight)
	}
	if want := uint64(len(s.Events)); rtt != want {
		t.Fatalf("wire RTT samples = %d, want %d", rtt, want)
	}
	if rep.AchievedRate <= 0 || rep.OfferedRate <= 0 {
		t.Fatalf("rates not computed: %+v", rep)
	}

	run := rep.RunInfo(s, "fleet", f)
	if run.ScheduleDigest != fmt.Sprintf("%016x", s.Digest()) || run.Switches != 2 {
		t.Fatalf("run info wrong: %+v", run)
	}
	v := loadgen.Evaluate(led, loadgen.Uniform(2, loadgen.ClassSLO{MaxLossRate: 0, LossRateSet: true}), run)
	if !v.Pass {
		t.Fatalf("zero-loss SLO breached: %v", v.Breaches)
	}
	b, err := v.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"pass": true`) {
		t.Fatalf("verdict JSON does not carry the gate bit:\n%s", b)
	}
}

// TestRunShedsAtFullSwitch: against switches that never answer, the pacer
// sheds what a switch has no room for instead of waiting for room, so the
// run ends within the schedule's duration plus one request timeout, every
// op lands in the ledger, and a zero-loss SLO breaches machine-readably,
// with the shed count and the queue depth in the verdict's run block.
func TestRunShedsAtFullSwitch(t *testing.T) {
	for _, batch := range []bool{false, true} {
		t.Run(map[bool]string{false: "perop", true: "batch"}[batch], func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			const timeout, depth = 100 * time.Millisecond, 2
			specs := make([]fleet.SwitchSpec, 3)
			for i := range specs {
				specs[i] = fleet.SwitchSpec{ID: fmt.Sprintf("wedged-%d", i), Addr: ofwiretest.Wedged(t)}
			}
			// The breaker never opens, so every op a switch takes waits out
			// its timeout.
			f, err := fleet.New(fleet.Config{QueueDepth: depth, WireBatch: batch, OpTimeout: timeout,
				ProbeInterval: time.Hour, Breaker: fleet.BreakerConfig{FailureThreshold: 1 << 30}}, specs)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			s, err := loadgen.Generate(loadgen.Config{
				Flows: 400, Rate: 1000, Arrival: loadgen.ArrivalConstant, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			led := loadgen.NewLedger(1)
			rep, err := Run(context.Background(), s, f, led, Config{})
			if err != nil {
				t.Fatal(err)
			}
			// A pacer that waited for room would sit out a timeout every few
			// ops: ~10 s.
			// The slack covers the pacer's lag and the batch linger.
			if limit := s.Duration() + timeout + timeout/2; rep.Wall > limit {
				t.Fatalf("run took %v, want at most %v: the pacer waited for room", rep.Wall, limit)
			}
			tot := led.Class(0)
			if rep.Shed == 0 || tot.Submitted != uint64(len(s.Events)) || tot.Completed() != tot.Submitted {
				t.Fatalf("shed %d, submitted %d, completed %d of %d events",
					rep.Shed, tot.Submitted, tot.Completed(), len(s.Events))
			}
			v := loadgen.Evaluate(led, loadgen.Uniform(1, loadgen.ClassSLO{MaxLossRate: 0, LossRateSet: true}),
				rep.RunInfo(s, "fleet", f))
			b, err := v.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if v.Pass || !strings.Contains(string(b), `"pass": false`) {
				t.Fatalf("every op lost, yet the zero-loss SLO passed:\n%s", b)
			}
			var run struct {
				Run struct {
					Shed       int `json:"shed"`
					QueueDepth int `json:"queue_depth"`
				} `json:"run"`
			}
			if err := json.Unmarshal(b, &run); err != nil {
				t.Fatal(err)
			}
			if run.Run.Shed != rep.Shed || run.Run.QueueDepth != depth {
				t.Fatalf("verdict run block shed %d, queue_depth %d; want the report's %d at depth %d:\n%s",
					run.Run.Shed, run.Run.QueueDepth, rep.Shed, depth, b)
			}
		})
	}
}

// TestRunSameSeedSameSchedule: two runs from the same seed replay
// byte-identical schedules (the digest lands in both verdicts) and
// complete the same operation totals.
func TestRunSameSeedSameSchedule(t *testing.T) {
	digests := make([]string, 2)
	submitted := make([]uint64, 2)
	for i := range digests {
		reg := obs.NewRegistry()
		f := startFleet(t, 1, fleet.Config{Obs: reg})
		s := smokeSchedule(t, 7)
		led := loadgen.NewLedger(2)
		rep, err := Run(context.Background(), s, f, led, Config{TimeScale: 4})
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = rep.RunInfo(s, "fleet", f).ScheduleDigest
		submitted[i] = totals(led).Submitted
		if _, inflight := wireSeries(reg, f); inflight != 0 {
			t.Fatalf("run %d left %d requests in flight", i, inflight)
		}
	}
	if digests[0] != digests[1] {
		t.Fatalf("same-seed digests diverge: %s vs %s", digests[0], digests[1])
	}
	if submitted[0] != submitted[1] {
		t.Fatalf("same-seed totals diverge: %d vs %d", submitted[0], submitted[1])
	}
}

// TestRunFleetTarget drives the same smoke through a batching fleet:
// flow-mod-batch frames between the driver and the agents, with the
// fleet's completion hook feeding a second conservation check.
func TestRunFleetTarget(t *testing.T) {
	var hookResults atomic.Uint64
	f := startFleet(t, 2, fleet.Config{
		WireBatch: true,
		BatchSize: 16,
		OnResult:  func(fleet.OpResult) { hookResults.Add(1) },
	})

	s := smokeSchedule(t, 11)
	led := loadgen.NewLedger(2)
	if _, err := Run(context.Background(), s, f, led, Config{TimeScale: 2}); err != nil {
		t.Fatal(err)
	}
	tot := totals(led)
	if tot.Submitted != uint64(len(s.Events)) || tot.Completed() != tot.Submitted {
		t.Fatalf("fleet-mode conservation broken: submitted=%d completed=%d events=%d",
			tot.Submitted, tot.Completed(), len(s.Events))
	}
	if tot.Rejected != 0 || tot.Lost != 0 {
		t.Fatalf("fleet-mode rejected/lost = %d/%d", tot.Rejected, tot.Lost)
	}
	if got := hookResults.Load(); got != uint64(len(s.Events)) {
		t.Fatalf("fleet OnResult saw %d completions, want %d", got, len(s.Events))
	}
}

// TestRunCancelled: cancelling mid-run stops the pacer, drains what was
// queued, and reports the cancellation.
func TestRunCancelled(t *testing.T) {
	reg := obs.NewRegistry()
	f := startFleet(t, 1, fleet.Config{Obs: reg})

	s, err := loadgen.Generate(loadgen.Config{
		Flows: 1000, Rate: 100, Arrival: loadgen.ArrivalConstant, Seed: 1,
	}) // 10 s of schedule; the cancel cuts it short
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	led := loadgen.NewLedger(1)
	rep, err := Run(ctx, s, f, led, Config{})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if rep.Wall >= 5*time.Second {
		t.Fatalf("cancelled run took %v", rep.Wall)
	}
	tot := led.Class(0)
	if tot.Completed() != tot.Submitted {
		t.Fatalf("cancelled run leaked ops: %d/%d", tot.Completed(), tot.Submitted)
	}
	if _, inflight := wireSeries(reg, f); inflight != 0 {
		t.Fatalf("%d requests in flight after cancelled drain", inflight)
	}
}
