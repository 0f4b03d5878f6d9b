// Package driver executes loadgen schedules against live Hermes agents
// through a fleet, in wall-clock time. It is the non-deterministic half of
// the load generator: the schedule it replays is deterministic, the pacing
// and the outcomes are real.
package driver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/core"
	"hermes/internal/fleet"
	"hermes/internal/loadgen"
	"hermes/internal/ofwire"
)

// Config tunes the executor. The zero value is completed with defaults.
type Config struct {
	// TimeScale divides schedule time: 2 replays a schedule twice as
	// fast as generated, 0.5 half speed. Default 1.
	TimeScale float64
}

// Report is the measured context of one run.
type Report struct {
	// Wall is the elapsed time from first fire to full drain.
	Wall time.Duration
	// Arrivals is the number of scheduled arrivals (inserts+modifies).
	Arrivals int
	// Events is the total operations dispatched, deletes included.
	Events int
	// Shed counts operations dropped at fire time because their switch
	// already held the fleet's queue depth of this run's operations
	// (counted lost in the ledger too).
	Shed int
	// OfferedRate is arrivals over the schedule's virtual duration —
	// the load the schedule asked for, after TimeScale.
	OfferedRate float64
	// AchievedRate is completed arrivals over wall time.
	AchievedRate float64
	// MaxLag is the worst observed dispatch lag: how far behind its
	// scheduled fire time an operation left the pacer. Large lag means
	// the pacer itself (not the switch) was the bottleneck and the run
	// under-offered.
	MaxLag time.Duration
}

// RunInfo converts the report into the verdict's run block.
func (r *Report) RunInfo(s *loadgen.Schedule, target string, switches int) loadgen.RunInfo {
	return loadgen.RunInfo{
		Seed:           s.Seed,
		ScheduleName:   s.Name,
		ScheduleDigest: fmt.Sprintf("%016x", s.Digest()),
		Target:         target,
		Switches:       switches,
		Arrivals:       r.Arrivals,
		OfferedRate:    r.OfferedRate,
		AchievedRate:   r.AchievedRate,
		WallSeconds:    r.Wall.Seconds(),
	}
}

// pending is one submitted operation awaiting its result.
type pending struct {
	op    loadgen.OpKind
	class uint8
	res   <-chan fleet.OpResult
}

// lane is one switch's completion path: its submitted operations in
// submit order, and how many of them the fleet still holds. pending is
// buffered to the fleet's queue depth, which bounds inFlight and so what
// pending holds: the pacer's send never blocks.
type lane struct {
	pending  chan pending
	inFlight atomic.Int64
}

// Run replays the schedule against the fleet open-loop: every event fires
// at start + At/TimeScale regardless of how earlier operations are faring,
// and is submitted to its rule's home switch (Fleet.Route), whose queue
// keeps the rule's insert, modifies and delete in order. One goroutine per
// switch reads the results in submit order into the ledger. An event whose
// switch already holds the fleet's queue depth of this run's operations is
// shed and counted lost, never delayed: the pacer never waits for room in
// the fleet's queue, since slowing the arrival process to match the target
// would hide the backlog the SLO exists to catch. Run returns when every
// submitted operation has completed, or with the context's error if
// cancelled mid-run (what was submitted drains either way).
func Run(ctx context.Context, s *loadgen.Schedule, f *fleet.Fleet, led *loadgen.Ledger, cfg Config) (*Report, error) {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	rep := &Report{Events: len(s.Events), Arrivals: s.Arrivals()}
	depth := int64(f.QueueDepth())

	lanes := make(map[string]*lane, f.Size())
	var wg sync.WaitGroup
	var appliedArrivals atomic.Int64
	for _, sw := range f.Switches() {
		ln := &lane{pending: make(chan pending, depth)}
		lanes[sw] = ln
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range ln.pending {
				res := <-p.res
				out := Classify(p.op, res.Result, res.Err)
				led.Finished(p.class, out, res.Result.Violation)
				ln.inFlight.Add(-1)
				if p.op != loadgen.OpDelete &&
					(out == loadgen.OutcomeInstalled || out == loadgen.OutcomeDiverted) {
					appliedArrivals.Add(1)
				}
			}
		}()
	}

	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	var maxLag time.Duration
	var runErr error
pace:
	for _, ev := range s.Events {
		fireAt := start.Add(time.Duration(float64(ev.At) / cfg.TimeScale))
		if wait := time.Until(fireAt); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				runErr = ctx.Err()
				break pace
			}
		} else if -wait > maxLag {
			maxLag = -wait
		}
		led.Submitted(ev.Class)
		sw := f.Route(ev.Rule.ID)
		ln := lanes[sw]
		if ln.inFlight.Load() >= depth {
			// Open-loop shed: the switch is saturated; dropping preserves
			// the arrival process and the drop itself is the signal.
			rep.Shed++
			led.Finished(ev.Class, loadgen.OutcomeLost, false)
			continue
		}
		var res <-chan fleet.OpResult
		var err error
		switch ev.Op {
		case loadgen.OpInsert:
			res, err = f.InsertAsync(sw, ev.Rule)
		case loadgen.OpModify:
			res, err = f.ModifyAsync(sw, ev.Rule)
		default:
			res, err = f.DeleteAsync(sw, ev.Rule.ID)
		}
		if err != nil { // the fleet is closed: nothing reached a switch
			led.Finished(ev.Class, loadgen.OutcomeLost, false)
			continue
		}
		ln.inFlight.Add(1)
		ln.pending <- pending{op: ev.Op, class: ev.Class, res: res}
	}
	for _, ln := range lanes {
		close(ln.pending)
	}
	wg.Wait()

	rep.Wall = time.Since(start)
	rep.MaxLag = maxLag
	virtual := time.Duration(float64(s.Duration()) / cfg.TimeScale)
	if virtual > 0 {
		rep.OfferedRate = float64(rep.Arrivals) / virtual.Seconds()
	}
	if rep.Wall > 0 {
		rep.AchievedRate = float64(appliedArrivals.Load()) / rep.Wall.Seconds()
	}
	if runErr != nil {
		return rep, fmt.Errorf("driver: run cancelled: %w", runErr)
	}
	return rep, nil
}

// Classify maps a completed operation to its ledger outcome. Only
// inserts can be diverted: the Gate Keeper's guaranteed/best-effort
// split applies to insertions; modifies and deletes hit installed state
// directly.
func Classify(op loadgen.OpKind, res ofwire.FlowModResult, err error) loadgen.Outcome {
	if err != nil {
		var remote *ofwire.ErrorBody
		if errors.As(err, &remote) {
			return loadgen.OutcomeRejected
		}
		return loadgen.OutcomeLost
	}
	if op == loadgen.OpInsert && !res.Guaranteed && res.Path == core.PathMain {
		return loadgen.OutcomeDiverted
	}
	return loadgen.OutcomeInstalled
}
