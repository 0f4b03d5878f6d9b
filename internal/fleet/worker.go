package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/intent"
	"hermes/internal/obs"
	"hermes/internal/ofwire"
)

// op is one queued flow-mod.
type op struct {
	kind intent.OpKind
	rule classifier.Rule
	done chan OpResult
}

// OpResult is the outcome of one fleet operation.
type OpResult struct {
	Switch   string
	RuleID   classifier.RuleID
	Result   ofwire.FlowModResult
	Attempts int
	Err      error
}

// maxFramesInFlight is how many flow-mod-batch frames a WireBatch worker
// keeps on the wire at once: one being answered while the next is written.
const maxFramesInFlight = 2

// worker owns one switch: its control channel, bounded flow-mod queue,
// circuit breaker, health probes, and telemetry. All flow-mods for the
// switch funnel through its queue; the worker dispatches them in batches
// over the pipelined client so several stay in flight on the wire.
type worker struct {
	id   string
	addr string
	f    *Fleet

	q    *opQueue
	stop chan struct{}

	// emu guards stopped, which fences client replacement against Close.
	emu     sync.RWMutex
	stopped bool

	// cmu guards client replacement on reconnect.
	cmu    sync.Mutex
	client *ofwire.Client

	// redialed is set by a reconnect and cleared once the fresh connection
	// has answered a probe and been announced. Probe goroutine only.
	redialed bool

	brk  *breaker
	tele switchTelemetry
	wg   sync.WaitGroup

	// framesInFlight counts the WireBatch frames written and not yet
	// answered (at most maxFramesInFlight).
	framesInFlight atomic.Int32

	// Optional obs instruments (set by registerObs before start); inflight
	// and rtt are attached to every client this worker dials so RTT and
	// in-flight accounting survive reconnects.
	inflight *obs.Gauge
	rtt      *obs.Histogram
	frameOps *obs.Histogram
}

func newWorker(f *Fleet, spec SwitchSpec, client *ofwire.Client) *worker {
	w := &worker{
		id:     spec.ID,
		addr:   spec.Addr,
		f:      f,
		q:      newOpQueue(f.cfg.QueueDepth, f.cfg.BatchSize),
		stop:   make(chan struct{}),
		client: client,
		brk:    newBreaker(f.cfg.Breaker),
		tele:   newTelemetry(),
	}
	registerObs(f.cfg.Obs, w)
	client.Instrument(w.inflight, w.rtt)
	return w
}

func (w *worker) start() {
	w.wg.Add(2)
	if w.f.cfg.WireBatch {
		go w.runWire()
	} else {
		go w.run()
	}
	go w.probeLoop()
}

func (w *worker) currentClient() *ofwire.Client {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	return w.client
}

// setClient swaps in a freshly dialed client, closing the old one. Refused
// after shutdown begins (the replacement is closed instead).
func (w *worker) setClient(c *ofwire.Client) {
	w.emu.RLock()
	stopped := w.stopped
	w.emu.RUnlock()
	if stopped {
		c.Close()
		return
	}
	w.cmu.Lock()
	old := w.client
	w.client = c
	w.cmu.Unlock()
	if old != nil {
		old.Close()
	}
}

// run is the per-op dispatch loop: take a batch off the queue and issue
// every op in it concurrently; the pipelined client keeps them all in
// flight on the one connection.
func (w *worker) run() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			w.drainFail()
			return
		default:
		}
		if batch := w.q.take(w.f.cfg.BatchSize); len(batch) > 0 {
			w.dispatch(batch)
			continue
		}
		select {
		case <-w.stop:
		case <-w.q.ready:
		}
	}
}

// dispatch issues every op of the batch at once so the pipelined client
// keeps them all in flight. The last op runs on the calling goroutine; only
// the others get one of their own, so a batch of one spawns nothing.
func (w *worker) dispatch(batch []*op) {
	var wg sync.WaitGroup
	last := len(batch) - 1
	for _, o := range batch[:last] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.complete(o, w.execute(o))
		}()
	}
	w.complete(batch[last], w.execute(batch[last]))
	wg.Wait()
}

// wireFrame is one batch handed from runWire to the completer: the ops in
// queue order and the frame carrying them, or a nil frame when the circuit
// was open and the ops fail fast.
type wireFrame struct {
	ops   []*op
	frame *ofwire.PendingBatch
}

// runWire is the WireBatch dispatch loop, Nagle's rule (RFC 896) applied
// to frames. With no frame in flight it writes what is queued, up to
// BatchSize ops, at once. With one in flight it coalesces until the queue
// holds BatchSize ops, BatchLinger passes, or that frame's reply arrives,
// whichever comes first; with two in flight it waits for a reply. So a lone
// op on an idle switch goes out without delay, and under load a frame
// fills while its predecessor is answered. One completer goroutine awaits
// the frames in send order and completes their ops; the queue is FIFO and
// the agent applies frames in arrival order, so per-rule FIFO and the
// per-switch OnResult order hold across frames. RetryDiverted is
// deliberately not honored here (see Config.WireBatch).
func (w *worker) runWire() {
	defer w.wg.Done()
	// Both sized to maxFramesInFlight: a frame sent and not yet counted
	// back through replied is in one channel or in the completer's hands,
	// so neither side's send ever blocks, also after runWire stops reading.
	frames := make(chan wireFrame, maxFramesInFlight)
	replied := make(chan struct{}, maxFramesInFlight)
	completed := make(chan struct{})
	go w.completeFrames(frames, replied, completed)

	// The one linger timer, armed only while a frame is in flight and ops
	// wait to join the next one.
	linger := time.NewTimer(w.f.cfg.BatchLinger)
	linger.Stop()
	defer linger.Stop()

	inFlight, armed, lingered := 0, false, false
	for {
		if inFlight < maxFramesInFlight {
			if n := w.q.len(); n > 0 {
				if inFlight == 0 || n >= w.q.batch || lingered {
					if armed && !linger.Stop() {
						// Fired but not yet received: drop the tick.
						select {
						case <-linger.C:
						default:
						}
					}
					armed, lingered = false, false
					frames <- w.send(w.q.take(w.f.cfg.BatchSize))
					inFlight++
					continue
				}
				if !armed {
					linger.Reset(w.f.cfg.BatchLinger)
					armed = true
				}
			}
		}
		select {
		case <-w.stop:
			// In-flight frames complete before queued ops drain, so
			// OnResult keeps submit order to the end.
			close(frames)
			<-completed
			w.drainFail()
			return
		case <-w.q.ready:
		case <-replied:
			inFlight--
		case <-linger.C:
			armed, lingered = false, true
		}
	}
}

// send writes one batch as a flow-mod-batch frame without waiting for its
// reply. An open circuit sends nothing; the completer fails the ops.
func (w *worker) send(batch []*op) wireFrame {
	if !w.brk.allow() {
		return wireFrame{ops: batch}
	}
	mods := make([]ofwire.FlowMod, len(batch))
	for i, o := range batch {
		cmd := ofwire.FlowAdd
		switch o.kind {
		case intent.OpDelete:
			cmd = ofwire.FlowDelete
		case intent.OpModify:
			cmd = ofwire.FlowModify
		}
		mods[i] = *ofwire.FlowModFromRule(cmd, o.rule)
	}
	if w.frameOps != nil {
		w.frameOps.Record(uint64(len(batch)))
	}
	w.framesInFlight.Add(1)
	return wireFrame{ops: batch, frame: w.currentClient().SendBatch(mods)}
}

// completeFrames is the completer: it awaits each frame in send order,
// tells runWire the moment its reply is in, and completes the frame's ops
// through complete(). Remote typed errors in an entry mean the switch is
// alive and do not count against the circuit; only wire-level failures
// trip it — once per frame, so a reset with two frames in flight counts
// twice. It returns once frames is closed and drained.
func (w *worker) completeFrames(frames <-chan wireFrame, replied chan<- struct{}, completed chan<- struct{}) {
	defer close(completed)
	for fr := range frames {
		if fr.frame == nil {
			replied <- struct{}{}
			for _, o := range fr.ops {
				w.tele.fail()
				w.complete(o, OpResult{
					Switch: w.id, RuleID: o.rule.ID, Attempts: 1,
					Err: &CircuitOpenError{Switch: w.id},
				})
			}
			continue
		}
		results, err := fr.frame.Wait(context.Background())
		w.framesInFlight.Add(-1)
		replied <- struct{}{}
		if err == nil {
			w.brk.success()
		} else {
			var remote *ofwire.ErrorBody
			if !errors.As(err, &remote) {
				w.tele.fault(err)
				w.brk.failure(time.Now())
			}
		}
		for i, o := range fr.ops {
			res := OpResult{Switch: w.id, RuleID: o.rule.ID, Attempts: 1}
			switch {
			case i < len(results) && results[i].Err == nil:
				res.Result = results[i].Result
				w.tele.observe(res.Result)
			case i < len(results) && results[i].Err != nil:
				// Per-op remote rejection: reported in its slot, the rest of
				// the batch stands.
				res.Err = results[i].Err
				w.tele.fail()
			default:
				// The wire failed before this op's frame got a reply.
				res.Err = err
				w.tele.fail()
			}
			w.complete(o, res)
		}
	}
}

// complete delivers one finished op: the completion hook (when configured)
// observes the result first, then the submitter's channel gets it.
func (w *worker) complete(o *op, res OpResult) {
	if h := w.f.cfg.OnResult; h != nil {
		h(res)
	}
	o.done <- res
}

// drainFail fails any ops still queued at shutdown. The queue is closed
// by then, so one take empties it for good.
func (w *worker) drainFail() {
	for _, o := range w.q.take(w.f.cfg.QueueDepth) {
		w.complete(o, OpResult{Switch: w.id, RuleID: o.rule.ID, Err: ErrFleetClosed})
	}
}

// execute performs one op, retrying guaranteed insertions the Gate Keeper
// diverted to the unguaranteed path: the diverted rule is deleted, the
// worker backs off (exponential + deterministic jitter), and the insert is
// reissued, giving the token bucket time to refill or the shadow table
// time to drain.
func (w *worker) execute(o *op) OpResult {
	res := OpResult{Switch: w.id, RuleID: o.rule.ID}
	seed := w.f.cfg.Seed ^ int64(fnv64a(w.id)) ^ int64(o.rule.ID)
	bo := w.f.cfg.Retry.newBackoff(seed)
	for {
		res.Attempts++
		if !w.brk.allow() {
			res.Err = &CircuitOpenError{Switch: w.id}
			w.tele.fail()
			return res
		}
		c := w.currentClient()
		var fr ofwire.FlowModResult
		var err error
		switch o.kind {
		case intent.OpInsert:
			fr, err = c.Insert(o.rule)
		case intent.OpDelete:
			fr, err = c.Delete(o.rule.ID)
		case intent.OpModify:
			fr, err = c.Modify(o.rule)
		}
		if err != nil {
			// Remote typed errors (duplicate rule, table full, …) are
			// application-level: the switch is alive, so they don't count
			// against the circuit.
			var remote *ofwire.ErrorBody
			if !errors.As(err, &remote) {
				w.tele.fault(err)
				w.brk.failure(time.Now())
			}
			res.Err = err
			w.tele.fail()
			return res
		}
		w.brk.success()
		if o.kind == intent.OpInsert && w.f.cfg.RetryDiverted &&
			!fr.Guaranteed && fr.Path == core.PathMain {
			w.tele.divert()
			if delay, ok := bo.next(); ok {
				if _, derr := c.Delete(o.rule.ID); derr == nil {
					w.tele.retry()
					select {
					case <-time.After(delay):
						continue
					case <-w.stop:
						res.Err = ErrFleetClosed
						return res
					}
				}
				// Could not undo the install; keep the diverted result.
			}
		}
		res.Result = fr
		w.tele.observe(fr)
		return res
	}
}

// probeLoop drives the circuit breaker with periodic echo probes and
// redials the switch once a dead connection is allowed to recover.
func (w *worker) probeLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if !w.brk.allowProbe(time.Now()) {
				continue
			}
			w.probe()
		}
	}
}

// probe redials a dead control channel and echo-tests the live one. The
// switch comes back as the wire left it — nothing is replayed — and the
// reconnect is counted and announced only once the fresh connection has
// answered a probe and the circuit is closed, so whoever reacts to
// OnReconnect finds a switch that takes requests.
func (w *worker) probe() {
	c := w.currentClient()
	if c == nil || c.Err() != nil {
		nc, err := w.f.dialClient(w.addr)
		if err != nil {
			w.tele.fault(err)
			w.brk.failure(time.Now())
			return
		}
		nc.Instrument(w.inflight, w.rtt)
		w.setClient(nc)
		w.redialed = true
		c = w.currentClient()
	}
	if _, err := c.Echo([]byte("hermes-fleet-probe")); err != nil {
		w.tele.fault(err)
		w.brk.failure(time.Now())
		return
	}
	w.brk.success()
	if w.redialed {
		w.redialed = false
		w.tele.reconnect()
		w.f.reconnected(w.id)
	}
}

// close tears the worker down: no new ops, queued ops failed, in-flight
// requests cut with ErrClientClosed, goroutines joined.
func (w *worker) close() error {
	w.emu.Lock()
	if w.stopped {
		w.emu.Unlock()
		return nil
	}
	w.stopped = true
	w.emu.Unlock()
	w.q.close()
	close(w.stop)
	err := w.currentClient().Close()
	w.wg.Wait()
	return err
}
