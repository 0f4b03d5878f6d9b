// Package driver executes loadgen schedules against live Hermes agents
// through a fleet, in wall-clock time. It is the non-deterministic half of
// the load generator: the schedule it replays is deterministic, the pacing
// and measured latencies are real.
package driver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/fleet"
	"hermes/internal/loadgen"
	"hermes/internal/ofwire"
)

// Config tunes the executor. The zero value is completed with defaults.
type Config struct {
	// Workers is the number of applier goroutines. Operations are
	// assigned to workers by rule identity, so each rule's insert →
	// modify → delete order is preserved even though workers run in
	// parallel. More workers = more flow-mods in flight. Default 32.
	Workers int
	// QueueDepth bounds each worker's pending-operation queue. The
	// driver is open-loop: when a worker's queue is full at fire time
	// the operation is shed and counted lost, never delayed — slowing
	// the arrival process to match the target would hide the backlog
	// the SLO exists to catch. Default 4096.
	QueueDepth int
	// TimeScale divides schedule time: 2 replays a schedule twice as
	// fast as generated, 0.5 half speed. Default 1.
	TimeScale float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 1
	}
	return c
}

// Report is the measured context of one run.
type Report struct {
	// Wall is the elapsed time from first fire to full drain.
	Wall time.Duration
	// Arrivals is the number of scheduled arrivals (inserts+modifies).
	Arrivals int
	// Events is the total operations dispatched, deletes included.
	Events int
	// Shed counts operations dropped at fire time because their
	// worker's queue was full (counted lost in the ledger too).
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

// queuedOp is one operation with its scheduled wall fire time.
type queuedOp struct {
	ev     loadgen.Event
	fireAt time.Time
}

// Run replays the schedule against the fleet open-loop: every event fires
// at start + At/TimeScale regardless of how earlier operations are faring,
// and lands on its rule's home switch (Fleet.Route), so a rule's insert,
// modifies and delete all reach the same agent. Outcomes and end-to-end
// setup latencies — scheduled fire time to completion, queueing included
// — land in the ledger. Run returns when every dispatched operation has
// completed, or with the context's error if cancelled mid-run (workers
// drain what was already queued either way).
func Run(ctx context.Context, s *loadgen.Schedule, f *fleet.Fleet, led *loadgen.Ledger, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{Events: len(s.Events), Arrivals: s.Arrivals()}

	queues := make([]chan queuedOp, cfg.Workers)
	var wg sync.WaitGroup
	var appliedArrivals atomic.Int64
	for i := range queues {
		queues[i] = make(chan queuedOp, cfg.QueueDepth)
		wg.Add(1)
		go func(q chan queuedOp) {
			defer wg.Done()
			for qo := range q {
				led.Submitted(qo.ev.Class)
				res := apply(f, qo.ev.Op, qo.ev.Rule)
				out := Classify(qo.ev.Op, res.Result, res.Err)
				led.Finished(qo.ev.Class, out, time.Since(qo.fireAt), res.Result.Violation)
				if qo.ev.Op != loadgen.OpDelete &&
					(out == loadgen.OutcomeInstalled || out == loadgen.OutcomeDiverted) {
					appliedArrivals.Add(1)
				}
			}
		}(queues[i])
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
		q := queues[mix64(uint64(ev.Rule.ID))%uint64(len(queues))]
		select {
		case q <- queuedOp{ev: ev, fireAt: fireAt}:
		default:
			// Open-loop shed: the worker is saturated; dropping preserves
			// the arrival process and the drop itself is the signal.
			rep.Shed++
			led.Submitted(ev.Class)
			led.Finished(ev.Class, loadgen.OutcomeLost, 0, false)
		}
	}
	for _, q := range queues {
		close(q)
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

// apply performs one operation on the rule's home switch and waits for
// its result.
func apply(f *fleet.Fleet, op loadgen.OpKind, r classifier.Rule) fleet.OpResult {
	sw := f.Route(r.ID)
	switch op {
	case loadgen.OpInsert:
		return f.Insert(sw, r)
	case loadgen.OpModify:
		return f.Modify(sw, r)
	case loadgen.OpDelete:
		return f.Delete(sw, r.ID)
	default:
		return fleet.OpResult{Err: fmt.Errorf("driver: unknown op %v", op)}
	}
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

// mix64 is the SplitMix64 finalizer (see loadgen): stable rule→worker
// assignment.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
