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

// maxGroupsInFlight is how many groups a worker keeps on the wire at once:
// one being answered while the next is written. A group is the ops one
// take moved off the queue: one flow-mod-batch frame under WireBatch, one
// flow-mod frame per op otherwise.
const maxGroupsInFlight = 2

// worker owns one switch: its control channel, bounded flow-mod queue,
// circuit breaker, health probes, and telemetry. All flow-mods for the
// switch funnel through its queue; the worker's dispatch loop writes them
// in groups over the pipelined client so several stay in flight on the
// wire.
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

	// groupsInFlight counts the groups written and not yet answered (at
	// most maxGroupsInFlight).
	groupsInFlight atomic.Int32
	// mods is send's encode buffer, reused group after group: the client
	// encodes every frame before SendBatch or SendEach returns. results is
	// complete's. Dispatch goroutine only.
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
	go w.dispatch()
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

// group is one take off the queue: the ops in queue order and their
// written frames, or nil frames when the circuit was open and the ops fail
// fast.
type group struct {
	ops    []*op
	frames *ofwire.PendingBatch
}

// unsent stands in for the replies of a group the open circuit kept off
// the wire: it is ready at once.
var unsent = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// dispatch is the worker's one dispatch loop, Nagle's rule (RFC 896)
// applied to groups of flow-mods. With no group in flight it writes what
// is queued, up to BatchSize ops, at once. With one in flight it coalesces
// until the queue holds BatchSize ops, BatchLinger passes, or that group's
// replies arrive, whichever comes first; with two in flight it waits for a
// reply. So a lone op on an idle switch goes out without delay, and under
// load a group fills while its predecessor is answered. The loop is also
// the completer: it completes the groups in send order as their replies
// come in, and the queue is FIFO and the agent applies frames in arrival
// order, so per-rule FIFO and the per-switch OnResult order hold across
// groups, in both encodings. Retrying diverted inserts (RetryDiverted,
// per-op encoding only) keeps one group in flight, and its slot frees only
// after the group's retries, so no later op overtakes a retried insert.
func (w *worker) dispatch() {
	defer w.wg.Done()
	retry := w.f.cfg.RetryDiverted && !w.f.cfg.WireBatch
	maxInFlight := maxGroupsInFlight
	if retry {
		maxInFlight = 1
	}
	inFlight := make([]group, 0, maxGroupsInFlight) // in send order

	// The one linger timer, armed only while a group is in flight and ops
	// wait to join the next one.
	linger := time.NewTimer(w.f.cfg.BatchLinger)
	linger.Stop()
	defer linger.Stop()

	armed, lingered := false, false
	// fill writes what Nagle's rule lets go into the free slots.
	fill := func() {
		for len(inFlight) < maxInFlight {
			ops, queued := w.q.take(w.f.cfg.BatchSize, len(inFlight) == 0 || lingered)
			if ops == nil {
				if queued > 0 && !armed {
					linger.Reset(w.f.cfg.BatchLinger)
					armed = true
				}
				return
			}
			if armed && !linger.Stop() {
				// Fired but not yet received: drop the tick.
				select {
				case <-linger.C:
				default:
				}
			}
			armed, lingered = false, false
			inFlight = append(inFlight, w.send(ops))
		}
	}
	for {
		fill()
		// Only the channels that can matter join the select. head is ready
		// once the oldest group's replies are in, or it failed or timed
		// out: completing it then does not block.
		var head <-chan struct{}
		if len(inFlight) > 0 {
			head = unsent
			if f := inFlight[0].frames; f != nil {
				head = f.Done()
			}
		}
		var lingerC <-chan time.Time
		if armed {
			lingerC = linger.C
		}
		select {
		case <-w.stop:
			// In-flight groups complete before queued ops drain, so
			// OnResult keeps submit order to the end.
			for _, g := range inFlight {
				w.complete(g, retry)
			}
			w.drainFail()
			return
		case <-w.q.ready:
		case <-head:
			g := inFlight[0]
			inFlight = append(inFlight[:0], inFlight[1:]...)
			if !retry {
				// The freed slot refills before the answered group's
				// results go out; a retried group holds it until done.
				fill()
			}
			w.complete(g, retry)
		case <-lingerC:
			armed, lingered = false, true
		}
	}
}

// send writes one group without waiting for its replies: one
// flow-mod-batch frame under WireBatch, one flow-mod frame per op
// otherwise. An open circuit sends nothing; completing the group fails its
// ops.
func (w *worker) send(ops []*op) group {
	if !w.brk.allow() {
		return group{ops: ops}
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
	w.groupsInFlight.Add(1)
	c := w.currentClient()
	if w.f.cfg.WireBatch {
		return group{ops: ops, frames: c.SendBatch(w.mods)}
	}
	return group{ops: ops, frames: c.SendEach(w.mods)}
}

// complete collects a group's replies, ready by now, and delivers its
// ops' results in queue order, after retrying its diverted inserts when
// retry is set. A remote rejection in an op's slot means the switch is
// alive and does not count against the circuit; each frame lost on the
// wire counts once, so a reset with two batch frames in flight counts
// twice, and with sixteen per-op frames in flight sixteen times.
func (w *worker) complete(g group, retry bool) {
	out := w.results[:0]
	if g.frames == nil {
		open := &CircuitOpenError{Switch: w.id}
		for _, o := range g.ops {
			out = append(out, OpResult{Switch: w.id, RuleID: o.rule.ID, Attempts: 1, Err: open})
		}
	} else {
		results, err := g.frames.Wait(context.Background())
		w.groupsInFlight.Add(-1)
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
			out = append(out, OpResult{Switch: w.id, RuleID: o.rule.ID, Attempts: 1,
				Result: results[i].Result, Err: results[i].Err})
		}
	}
	if retry {
		// The group's diverted inserts retry concurrently.
		var wg sync.WaitGroup
		for i, o := range g.ops {
			if o.kind == intent.OpInsert && diverted(out[i]) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.retry(o, &out[i])
				}()
			}
		}
		wg.Wait()
	}
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

// diverted reports an insert that landed off the guaranteed path.
func diverted(res OpResult) bool {
	return res.Err == nil && !res.Result.Guaranteed && res.Result.Path == core.PathMain
}

// retry re-inserts one diverted insert until it lands guaranteed: the
// diverted rule is deleted, the worker backs off (exponential +
// deterministic jitter, seeded per op by Config.Seed ⊕ switch ⊕ rule), and
// the insert is reissued, giving the token bucket time to refill or the
// shadow table time to drain. A spent attempt budget or a failed undo
// keeps the diverted result.
func (w *worker) retry(o *op, res *OpResult) {
	bo := w.f.cfg.Retry.newBackoff(w.f.cfg.Seed ^ int64(fnv64a(w.id)) ^ int64(o.rule.ID))
	for diverted(*res) {
		w.tele.divert()
		delay, ok := bo.next()
		if !ok {
			return
		}
		c := w.currentClient()
		if _, err := c.Delete(o.rule.ID); err != nil {
			return
		}
		w.tele.retry()
		select {
		case <-time.After(delay):
		case <-w.stop:
			res.Err = ErrFleetClosed
			return
		}
		res.Attempts++
		if !w.brk.allow() {
			res.Err = &CircuitOpenError{Switch: w.id}
			return
		}
		res.Result, res.Err = c.Insert(o.rule)
		w.health(res.Err)
	}
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

// drainFail fails any ops still queued at shutdown. The queue is closed
// by then, so one take empties it for good.
func (w *worker) drainFail() {
	ops, _ := w.q.take(w.f.cfg.QueueDepth, true)
	for _, o := range ops {
		w.deliver(o, OpResult{Switch: w.id, RuleID: o.rule.ID, Err: ErrFleetClosed})
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
