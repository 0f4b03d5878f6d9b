package fleet

import (
	"errors"
	"sync"
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

// worker owns one switch: its control channel, bounded flow-mod queue,
// circuit breaker, health probes, and telemetry. All flow-mods for the
// switch funnel through its queue; the worker dispatches them in batches
// over the pipelined client so several stay in flight on the wire.
type worker struct {
	id   string
	addr string
	f    *Fleet

	queue chan *op
	stop  chan struct{}

	// emu guards stopped and fences in-flight enqueues against Close.
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

	// Optional obs instruments (set by registerObs before start); attached
	// to every client this worker dials so RTT and in-flight accounting
	// survive reconnects.
	inflight *obs.Gauge
	rtt      *obs.Histogram
}

func newWorker(f *Fleet, spec SwitchSpec, client *ofwire.Client) *worker {
	w := &worker{
		id:     spec.ID,
		addr:   spec.Addr,
		f:      f,
		queue:  make(chan *op, f.cfg.QueueDepth),
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
	go w.run()
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

// enqueue adds one op to the bounded queue, blocking for backpressure when
// the queue is full.
func (w *worker) enqueue(o *op) error {
	w.emu.RLock()
	defer w.emu.RUnlock()
	if w.stopped {
		return ErrFleetClosed
	}
	select {
	case w.queue <- o:
		return nil
	//lint:ignore chanblock stop is close-only (no sender to rendezvous with) and Close releases emu before closing it; the run loop keeps draining queue until then, so the select always makes progress
	case <-w.stop:
		return ErrFleetClosed
	}
}

// run is the dispatch loop: pull a batch off the queue and issue every op
// in it concurrently; the pipelined client keeps them all in flight on the
// one connection.
func (w *worker) run() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			w.drainFail()
			return
		case o := <-w.queue:
			if w.f.cfg.WireBatch {
				w.dispatchWire(w.gatherLinger(o))
				continue
			}
			batch := []*op{o}
			for len(batch) < w.f.cfg.BatchSize {
				select {
				case next := <-w.queue:
					batch = append(batch, next)
				default:
					goto full
				}
			}
		full:
			w.dispatch(batch)
		}
	}
}

// gatherLinger coalesces queued ops into one wire batch: it keeps pulling
// until the batch is full or BatchLinger elapses without it filling —
// size-or-deadline coalescing, so a trickle of ops still flushes promptly
// while a burst amortizes into one frame.
func (w *worker) gatherLinger(first *op) []*op {
	batch := []*op{first}
	t := time.NewTimer(w.f.cfg.BatchLinger)
	defer t.Stop()
	for len(batch) < w.f.cfg.BatchSize {
		select {
		case next := <-w.queue:
			batch = append(batch, next)
		case <-t.C:
			return batch
		//lint:ignore chanblock stop is close-only; a closed stop just flushes the gathered batch before the run loop drains
		case <-w.stop:
			return batch
		}
	}
	return batch
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

// dispatchWire applies one gathered batch as a single flow-mod-batch
// frame. The ops travel in queue order and the agent applies the frame's
// entries in order under one lock acquisition, so per-rule FIFO is
// preserved: the queue is FIFO, one run loop gathers, and this method
// issues batches sequentially (never concurrently). Per-op outcomes are
// demuxed from the reply entries through the same complete() path the
// per-op dispatcher uses, so OnResult observers see exactly one callback
// per submitted op either way. Remote typed errors in an entry mean the
// switch is alive and do not count against the circuit; only wire-level
// failures trip it. RetryDiverted is deliberately not honored here (see
// Config.WireBatch).
func (w *worker) dispatchWire(batch []*op) {
	if !w.brk.allow() {
		for _, o := range batch {
			w.tele.fail()
			w.complete(o, OpResult{
				Switch: w.id, RuleID: o.rule.ID, Attempts: 1,
				Err: &CircuitOpenError{Switch: w.id},
			})
		}
		return
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
	results, err := w.currentClient().ApplyBatch(mods)
	if err == nil {
		w.brk.success()
	} else {
		var remote *ofwire.ErrorBody
		if !errors.As(err, &remote) {
			w.tele.fault(err)
			w.brk.failure(time.Now())
		}
	}
	for i, o := range batch {
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
			// The wire failed before this op's chunk got a reply.
			res.Err = err
			w.tele.fail()
		}
		w.complete(o, res)
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

// drainFail fails any ops still queued at shutdown.
func (w *worker) drainFail() {
	for {
		select {
		case o := <-w.queue:
			w.complete(o, OpResult{Switch: w.id, RuleID: o.rule.ID, Err: ErrFleetClosed})
		default:
			return
		}
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
	close(w.stop)
	err := w.currentClient().Close()
	w.wg.Wait()
	return err
}
