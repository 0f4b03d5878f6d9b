package fleet

import (
	"context"
	"errors"
	"sync"
	"time"

	"hermes/internal/classifier"
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
	Switch string
	RuleID classifier.RuleID
	Result ofwire.FlowModResult
	Err    error
}

// maxGroupsInFlight is how many groups a worker keeps on the wire at once:
// one being answered while the next is written. A group is the ops one
// take moved off the queue: one flow-mod-batch frame under WireBatch, one
// flow-mod frame per op otherwise.
const maxGroupsInFlight = 2

// worker owns one switch: its control channel, bounded flow-mod queue,
// circuit breaker, health probes, and telemetry. All flow-mods for the
// switch funnel through its queue, with no goroutine of the worker's own:
// whichever goroutine makes a group sendable writes it (pump), and
// whichever closes a group's Done completes the answered ones (reap).
type worker struct {
	id   string
	addr string
	f    *Fleet

	q    *opQueue
	stop chan struct{}

	// redialed is set by a reconnect and cleared once the fresh connection
	// has answered a probe and been announced. Probe goroutine only.
	redialed bool

	brk  *breaker
	tele switchTelemetry
	wg   sync.WaitGroup // joins probeLoop

	reapFn func() // reap, bound once: every group's OnDone hook

	// mu guards the client, the queue, the groups in flight and who works
	// them: one goroutine writes (sending), one completes (reaping), none
	// until start and from close on (halted); stopped: close began. gen
	// counts the groups taken; armed: a linger timer runs for the current
	// one; lingered: it ran out.
	mu                                sync.Mutex
	client                            *ofwire.Client
	inFlight                          []group // in send order
	sending, reaping, halted, stopped bool
	armed, lingered                   bool
	gen                               uint64

	// mods is pump's encode buffer, reused group after group: the client
	// encodes every frame before SendBatch or SendEach returns. results is
	// reap's.
	mods    []ofwire.FlowMod
	results []OpResult

	// Optional obs instruments (set by registerObs before start); inflight
	// and rtt are attached to every client this worker dials so RTT and
	// in-flight accounting survive reconnects.
	inflight *obs.Gauge
	rtt      *obs.Histogram
	groupOps *obs.Histogram
}

func newWorker(f *Fleet, spec SwitchSpec, client *ofwire.Client) *worker {
	w := &worker{
		id:     spec.ID,
		addr:   spec.Addr,
		f:      f,
		stop:   make(chan struct{}),
		client: client,
		brk:    newBreaker(f.cfg.Breaker),
		tele:   newTelemetry(),
		halted: true,
	}
	w.q = &opQueue{depth: f.cfg.QueueDepth, batch: min(f.cfg.BatchSize, f.cfg.QueueDepth),
		cond: sync.NewCond(&w.mu)}
	w.reapFn = w.reap
	registerObs(f.cfg.Obs, w)
	client.Instrument(w.inflight, w.rtt)
	return w
}

// start runs the probe loop and writes what was queued before it.
func (w *worker) start() {
	w.wg.Add(1)
	go w.probeLoop()
	w.mu.Lock()
	w.halted = false
	w.mu.Unlock()
	w.pump()
}

func (w *worker) currentClient() *ofwire.Client {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.client
}

// setClient swaps in a freshly dialed client, closing the old one. Refused
// after shutdown begins (the replacement is closed instead).
func (w *worker) setClient(c *ofwire.Client) {
	w.mu.Lock()
	old := c
	if !w.stopped {
		old, w.client = w.client, c
	}
	w.mu.Unlock()
	old.Close()
}

// group is one take off the queue: the ops in queue order and their
// written frames, nil when the open circuit kept them off the wire.
type group struct {
	ops    []*op
	frames *ofwire.PendingBatch
}

// answered reports a group reap can complete without blocking.
func (g *group) answered() bool {
	if g.frames == nil {
		return true
	}
	select {
	case <-g.frames.Done():
		return true
	default:
		return false
	}
}

// submit queues o. The submitter whose op makes the queue a full batch,
// or non-empty unless more ops of its own follow, offers it to the wire
// and may write a group itself: a burst goes out in full batches.
func (w *worker) submit(o *op, more bool) error {
	w.mu.Lock()
	n, err := w.q.push(o)
	w.mu.Unlock()
	if err == nil && (n == w.q.batch || n == 1 && !more) {
		w.pump()
	}
	return err
}

// pump writes the groups next lets go, on the goroutine that made them
// sendable: a submitter, the reaper that freed a slot, or the linger
// timer. One that finds another writing leaves it the queue; the writer
// looks again before it stops.
func (w *worker) pump() {
	w.mu.Lock()
	if w.sending {
		w.mu.Unlock()
		return
	}
	w.sending = true
	for ops := w.next(); ops != nil; ops = w.next() {
		c := w.client
		w.mu.Unlock()
		frames := w.send(c, ops)
		w.mu.Lock()
		w.inFlight = append(w.inFlight, group{ops: ops, frames: frames})
		w.mu.Unlock()
		if frames == nil {
			w.reap() // fails the group; this loop, not reap, refills
		} else {
			frames.OnDone(w.reapFn) // after the append: completes in send order
		}
		w.mu.Lock()
	}
	w.sending = false
	w.q.cond.Broadcast()
	w.mu.Unlock()
}

// next takes the next group's ops off the queue (mu held) by Nagle's rule
// (RFC 896) applied to groups: with no group in flight, what is queued, up
// to BatchSize ops; with one, a full batch, or what is queued once
// BatchLinger passed or that group's replies freed its slot; with two,
// nothing. So a lone op on an idle switch goes out without delay, and
// under load a group fills while its predecessor is answered.
func (w *worker) next() []*op {
	n := len(w.inFlight)
	if w.halted || n == maxGroupsInFlight {
		return nil
	}
	ops, queued := w.q.take(w.f.cfg.BatchSize, n == 0 || w.lingered)
	if ops != nil {
		w.gen++
		w.armed, w.lingered = false, false
	} else if queued > 0 && !w.armed {
		w.armed = true
		gen := w.gen
		time.AfterFunc(w.f.cfg.BatchLinger, func() {
			w.mu.Lock()
			if gen == w.gen { // else stale: its group went out meanwhile
				w.armed, w.lingered = false, true
			}
			w.mu.Unlock()
			w.pump()
		})
	}
	return ops
}

// send writes one group on c without waiting for its replies: one
// flow-mod-batch frame under WireBatch, one flow-mod frame per op
// otherwise. An open circuit sends nothing and returns nil.
func (w *worker) send(c *ofwire.Client, ops []*op) *ofwire.PendingBatch {
	if !w.brk.allow() {
		return nil
	}
	w.mods = w.mods[:0]
	for _, o := range ops {
		cmd := ofwire.FlowAdd
		switch o.kind {
		case intent.OpDelete:
			cmd = ofwire.FlowDelete
		case intent.OpModify:
			cmd = ofwire.FlowModify
		}
		w.mods = append(w.mods, *ofwire.FlowModFromRule(cmd, o.rule))
	}
	if w.groupOps != nil {
		w.groupOps.Record(uint64(len(ops)))
	}
	if w.f.cfg.WireBatch {
		return c.SendBatch(w.mods)
	}
	return c.SendEach(w.mods)
}

// reap completes the answered groups at the head of the in-flight list in
// send order, on the goroutine that closed a group's Done (read loop,
// expiry timer, sender) or found it unsent. One that finds another reaping
// leaves it the list; the reaper looks again before it stops. The queue is
// FIFO and the agent applies frames in arrival order, so per-rule FIFO and
// the per-switch OnResult order hold across groups.
func (w *worker) reap() {
	w.mu.Lock()
	if w.reaping {
		w.mu.Unlock()
		return
	}
	w.reaping = true
	for len(w.inFlight) > 0 && w.inFlight[0].answered() {
		g := w.inFlight[0]
		w.mu.Unlock()
		w.complete(g)
		w.mu.Lock()
	}
	w.reaping = false
	w.q.cond.Broadcast()
	w.mu.Unlock()
}

// complete collects the head group's results, ready by now, frees and
// refills its slot, and delivers the results in queue order. A remote
// rejection in an op's slot means the switch is alive and does not count
// against the circuit; each frame lost on the wire counts once, so a reset
// with two batch frames in flight counts twice, and with sixteen per-op
// frames in flight sixteen.
func (w *worker) complete(g group) {
	out := w.results[:0]
	if g.frames == nil {
		open := &CircuitOpenError{Switch: w.id}
		for _, o := range g.ops {
			out = append(out, OpResult{Switch: w.id, RuleID: o.rule.ID, Err: open})
		}
	} else {
		results, err := g.frames.Wait(context.Background())
		if err == nil {
			w.brk.success()
		} else {
			w.tele.fault(err)
			now := time.Now()
			for range g.frames.Failed() {
				w.brk.failure(now)
			}
		}
		for i, o := range g.ops {
			out = append(out, OpResult{Switch: w.id, RuleID: o.rule.ID,
				Result: results[i].Result, Err: results[i].Err})
		}
	}
	w.mu.Lock()
	w.inFlight = append(w.inFlight[:0], w.inFlight[1:]...)
	w.mu.Unlock()
	w.pump()
	for i, o := range g.ops {
		if out[i].Err == nil {
			w.tele.observe(out[i].Result)
		} else {
			w.tele.fail()
		}
		w.deliver(o, out[i])
	}
	w.results = out
}

// health feeds one request's outcome to the circuit breaker. Remote typed
// errors (duplicate rule, table full, …) are application-level: the switch
// is alive, so they count neither way.
func (w *worker) health(err error) {
	var remote *ofwire.ErrorBody
	switch {
	case err == nil:
		w.brk.success()
	case !errors.As(err, &remote):
		w.tele.fault(err)
		w.brk.failure(time.Now())
	}
}

// deliver hands over one finished op: the completion hook (when
// configured) observes the result first, then the submitter's channel
// gets it.
func (w *worker) deliver(o *op, res OpResult) {
	if h := w.f.cfg.OnResult; h != nil {
		h(res)
	}
	o.done <- res
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
	_, err := c.Echo([]byte("hermes-fleet-probe"))
	w.health(err)
	if err != nil {
		return
	}
	if w.redialed {
		w.redialed = false
		w.tele.reconnect()
		w.f.reconnected(w.id)
	}
}

// close tears the worker down: in-flight requests cut with ErrClientClosed
// and their groups completed, then queued ops failed, the probe loop joined.
func (w *worker) close() error {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return nil
	}
	w.stopped, w.halted = true, true
	w.q.close()
	c := w.client
	w.mu.Unlock()
	close(w.stop)
	err := c.Close()
	w.mu.Lock()
	for w.sending || w.reaping || len(w.inFlight) > 0 {
		w.q.cond.Wait()
	}
	queued, _ := w.q.take(w.f.cfg.QueueDepth, true)
	w.mu.Unlock()
	w.wg.Wait()
	for _, o := range queued {
		w.deliver(o, OpResult{Switch: w.id, RuleID: o.rule.ID, Err: ErrFleetClosed})
	}
	return err
}
