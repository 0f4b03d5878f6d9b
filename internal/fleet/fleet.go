// Package fleet is the controller-side fleet control plane: it drives many
// Hermes agents concurrently over the ofwire protocol — the layer between
// the single-agent core and a production deployment of one agent per
// switch (Fig. 2 of the paper, scaled out).
//
// A Fleet owns one worker per switch. Each worker has a bounded flow-mod
// queue, dispatches batches over a pipelined client (many requests in
// flight per connection), retries insertions the Gate Keeper diverts off
// the guaranteed path with exponential backoff plus deterministic jitter,
// and trips a circuit breaker — fed by echo health probes — when its
// switch dies, so one wedged agent degrades to fail-fast instead of
// stalling the rest of the fleet. Rules route to switches either
// explicitly or consistently by rule ID, and a fleet-wide Snapshot merges
// every agent's counters with client-observed latency percentiles.
//
// The fleet is a transport and owns no desired state: what it holds is
// proportional to what is in flight (queues, pending requests, fixed-size
// histograms), never to the rules installed or the ops completed. When a
// switch's control channel dies, the health-probe loop redials it (through
// the optional Dial seam, which chaos tests use to inject wire faults) and
// reports the reconnect; the switch comes back as the wire left it. Deciding
// what it should hold, and repairing it after a power cycle, belongs to
// internal/intent: *Fleet is that reconciler's Target (Ready, Observe,
// Apply) and NewController wires the two together, so
// reconnect → MarkDirty → Observe → Diff → Apply is the one recovery path.
package fleet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/intent"
	"hermes/internal/obs"
	"hermes/internal/ofwire"
)

// Fleet errors.
var (
	// ErrFleetClosed is returned for operations on a closed fleet.
	ErrFleetClosed = errors.New("fleet: closed")
	// ErrUnknownSwitch is returned for operations naming a switch the
	// fleet does not manage.
	ErrUnknownSwitch = errors.New("fleet: unknown switch")
	// ErrNoSwitches is returned by New for an empty fleet.
	ErrNoSwitches = errors.New("fleet: no switches")
)

// SwitchSpec names one switch and its agent's control-channel address.
type SwitchSpec struct {
	ID   string
	Addr string
}

// Config tunes the fleet. The zero value is completed with defaults.
type Config struct {
	// QueueDepth bounds each worker's flow-mod queue; a full queue
	// applies backpressure to submitters. Defaults to 128.
	QueueDepth int
	// BatchSize caps how many queued flow-mods one worker dispatches
	// concurrently over its pipelined connection. Defaults to 16.
	BatchSize int
	// DialTimeout bounds the initial and reconnect dials. Defaults to 2s.
	DialTimeout time.Duration
	// Dial, when non-nil, replaces the plain TCP dial for initial and
	// reconnect connections. The fleet performs the ofwire hello exchange
	// on whatever connection it returns. This is the wire-fault seam:
	// chaos tests hand in faultinject.(*Wire).Dial to perturb the control
	// channel without the fleet knowing.
	Dial func(network, addr string) (net.Conn, error)
	// WireBatch switches workers to vectored dispatch: instead of issuing
	// each queued flow-mod as its own request, a worker drains its queue
	// into one flow-mod-batch frame (up to BatchSize ops, lingering at
	// most BatchLinger for stragglers) and applies it with a single wire
	// round trip — amortizing syscalls, the agent's lock acquisition, and
	// its snapshot rebuild across the whole batch. Ops are encoded in
	// queue order and the agent applies them in order, so per-rule FIFO
	// (an insert followed by a delete of the same rule never reorders) is
	// preserved end to end. RetryDiverted is intentionally bypassed in
	// batch mode: a divert retry deletes and re-inserts one rule
	// mid-stream, which would break exactly the ordering the batch path
	// guarantees.
	WireBatch bool
	// BatchLinger is how long a worker holding a non-full batch waits for
	// more queued ops before flushing (size-or-deadline coalescing). Only
	// consulted when WireBatch is set. Defaults to 500µs.
	BatchLinger time.Duration
	// OpTimeout, when > 0, bounds every request the fleet issues on a
	// control channel (flow-mods, barriers, probes, stats). A stalled
	// switch then fails the request with context.DeadlineExceeded instead
	// of wedging the worker forever.
	OpTimeout time.Duration
	// ProbeInterval is the echo health-probe period. Defaults to 100ms.
	ProbeInterval time.Duration
	// Retry shapes the backoff for diverted insertions (RetryDiverted).
	Retry RetryPolicy
	// Breaker tunes the per-switch circuit breaker.
	Breaker BreakerConfig
	// RetryDiverted enables delete-and-reinsert retries for guaranteed
	// insertions the Gate Keeper diverted to the unguaranteed main path
	// (rate-limited or shadow-full).
	RetryDiverted bool
	// Seed makes backoff jitter deterministic; runs with the same seed
	// and workload replay identical retry schedules. Defaults to 1.
	Seed int64
	// Obs, when non-nil, exposes per-switch fleet metrics on the registry:
	// queue depth, breaker state and trips, op/retry/divert/reconnect
	// counters, and the control channel's in-flight gauge and RTT
	// histogram, all labeled with the switch ID. Nil disables exposition
	// with zero hot-path cost.
	Obs *obs.Registry
	// OnResult, when non-nil, observes every finished operation — the
	// completion-notification seam load generators use to feed a ledger
	// without wrapping each result channel. It fires exactly once per
	// submitted op (successes, remote rejections, circuit-open fast
	// failures, and shutdown drains alike), before the result is delivered
	// to the submitter's channel. It runs on worker goroutines: keep it
	// fast and never block.
	OnResult func(OpResult)
	// OnReconnect, when non-nil, fires after a worker has redialed a dead
	// switch and the fresh connection has answered a health probe — the
	// circuit is closed, the switch takes requests, and it may have
	// restarted with empty tables: the fleet replays nothing. A controller
	// built with NewController hears the same event without this hook. It
	// runs on the worker's probe goroutine: keep it fast and never block.
	OnReconnect func(switchID string)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.BatchLinger <= 0 {
		c.BatchLinger = 500 * time.Microsecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 100 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Retry = c.Retry.withDefaults()
	c.Breaker = c.Breaker.withDefaults()
	return c
}

// Fleet drives N Hermes agents concurrently.
type Fleet struct {
	cfg     Config
	workers map[string]*worker
	order   []string // sorted switch IDs; the consistent routing table

	// ctrl is the reconciler NewController attached, told of reconnects.
	ctrl atomic.Pointer[intent.Controller]

	mu     sync.Mutex
	closed bool
}

// New dials every switch and starts one worker per switch. On any dial
// failure the already-connected switches are closed and the error is
// returned.
func New(cfg Config, switches []SwitchSpec) (*Fleet, error) {
	if len(switches) == 0 {
		return nil, ErrNoSwitches
	}
	f := &Fleet{cfg: cfg.withDefaults(), workers: make(map[string]*worker, len(switches))}
	for _, spec := range switches {
		if spec.ID == "" {
			spec.ID = spec.Addr
		}
		if _, dup := f.workers[spec.ID]; dup {
			f.teardown()
			return nil, fmt.Errorf("fleet: duplicate switch id %q", spec.ID)
		}
		client, err := f.dialClient(spec.Addr)
		if err != nil {
			f.teardown()
			return nil, fmt.Errorf("fleet: dialing %s (%s): %w", spec.ID, spec.Addr, err)
		}
		f.workers[spec.ID] = newWorker(f, spec, client)
		f.order = append(f.order, spec.ID)
	}
	sort.Strings(f.order)
	for _, w := range f.workers {
		w.start()
	}
	return f, nil
}

// dialClient opens one control channel to addr — through the Dial seam
// when configured, a plain bounded TCP dial otherwise — and applies the
// fleet's per-request deadline to the fresh client.
func (f *Fleet) dialClient(addr string) (*ofwire.Client, error) {
	var client *ofwire.Client
	if f.cfg.Dial != nil {
		conn, err := f.cfg.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		client, err = ofwire.NewClient(conn)
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		client, err = ofwire.Dial(addr, f.cfg.DialTimeout)
		if err != nil {
			return nil, err
		}
	}
	client.SetRequestTimeout(f.cfg.OpTimeout)
	return client, nil
}

func (f *Fleet) teardown() {
	for _, w := range f.workers {
		w.close() //nolint:errcheck
	}
}

// Switches returns the managed switch IDs in routing order.
func (f *Fleet) Switches() []string {
	return append([]string(nil), f.order...)
}

// Size returns the number of managed switches.
func (f *Fleet) Size() int { return len(f.order) }

// Route maps a rule ID to its home switch: consistent hashing over the
// sorted switch set, so the same rule always lands on the same switch for
// a given fleet membership.
func (f *Fleet) Route(id classifier.RuleID) string {
	var buf [len("rule-") + 20]byte // 20 = digits of MaxUint64
	key := strconv.AppendUint(append(buf[:0], "rule-"...), uint64(id), 10)
	return f.order[fnv64a(key)%uint64(len(f.order))]
}

// submit queues one op on the switch's worker. A switch with an open
// circuit fails fast without queuing.
func (f *Fleet) submit(switchID string, o *op) (<-chan OpResult, error) {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return nil, ErrFleetClosed
	}
	w, ok := f.workers[switchID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSwitch, switchID)
	}
	o.done = make(chan OpResult, 1)
	if !w.brk.allow() {
		w.tele.fail()
		w.complete(o, OpResult{Switch: w.id, RuleID: o.rule.ID, Err: &CircuitOpenError{Switch: w.id}})
		return o.done, nil
	}
	if err := w.enqueue(o); err != nil {
		return nil, err
	}
	return o.done, nil
}

// InsertAsync queues an insertion on the named switch and returns the
// result channel immediately; the queue applies backpressure when full.
func (f *Fleet) InsertAsync(switchID string, r classifier.Rule) (<-chan OpResult, error) {
	return f.submit(switchID, &op{kind: intent.OpInsert, rule: r})
}

// DeleteAsync queues a deletion on the named switch.
func (f *Fleet) DeleteAsync(switchID string, id classifier.RuleID) (<-chan OpResult, error) {
	return f.submit(switchID, &op{kind: intent.OpDelete, rule: classifier.Rule{ID: id}})
}

// ModifyAsync queues a modification on the named switch.
func (f *Fleet) ModifyAsync(switchID string, r classifier.Rule) (<-chan OpResult, error) {
	return f.submit(switchID, &op{kind: intent.OpModify, rule: r})
}

func await(ch <-chan OpResult, err error) OpResult {
	if err != nil {
		return OpResult{Err: err}
	}
	return <-ch
}

// Insert queues an insertion and waits for its outcome.
func (f *Fleet) Insert(switchID string, r classifier.Rule) OpResult {
	res := await(f.InsertAsync(switchID, r))
	if res.Switch == "" {
		res.Switch, res.RuleID = switchID, r.ID
	}
	return res
}

// Delete queues a deletion and waits for its outcome.
func (f *Fleet) Delete(switchID string, id classifier.RuleID) OpResult {
	res := await(f.DeleteAsync(switchID, id))
	if res.Switch == "" {
		res.Switch, res.RuleID = switchID, id
	}
	return res
}

// Modify queues a modification and waits for its outcome.
func (f *Fleet) Modify(switchID string, r classifier.Rule) OpResult {
	res := await(f.ModifyAsync(switchID, r))
	if res.Switch == "" {
		res.Switch, res.RuleID = switchID, r.ID
	}
	return res
}

// InsertRouted inserts on the rule's home switch (consistent routing).
func (f *Fleet) InsertRouted(r classifier.Rule) OpResult {
	return f.Insert(f.Route(r.ID), r)
}

// InsertRoutedAsync queues an insertion on the rule's home switch.
func (f *Fleet) InsertRoutedAsync(r classifier.Rule) (<-chan OpResult, error) {
	return f.InsertAsync(f.Route(r.ID), r)
}

// ObservedRules dumps the named switch's controller-visible rule set over
// its control channel — the observed side of a desired-vs-observed diff,
// sorted by rule ID. A switch with an open circuit fails fast with
// CircuitOpenError so callers back off instead of piling requests onto a
// dead channel.
func (f *Fleet) ObservedRules(switchID string) ([]classifier.Rule, error) {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return nil, ErrFleetClosed
	}
	w, ok := f.workers[switchID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSwitch, switchID)
	}
	if !w.brk.allow() {
		w.tele.fail()
		return nil, &CircuitOpenError{Switch: switchID}
	}
	rules, err := w.currentClient().DumpRules()
	if err != nil {
		var remote *ofwire.ErrorBody
		if !errors.As(err, &remote) {
			w.tele.fault(err)
			w.brk.failure(time.Now())
		}
		return nil, err
	}
	w.brk.success()
	return rules, nil
}

// BreakerState reports the named switch's circuit state, letting callers
// (reconcilers, dashboards) distinguish a switch that is dead from one
// that is merely slow without submitting a probe op.
func (f *Fleet) BreakerState(switchID string) (BreakerState, error) {
	w, ok := f.workers[switchID]
	if !ok {
		return BreakerClosed, fmt.Errorf("%w: %q", ErrUnknownSwitch, switchID)
	}
	st, _ := w.brk.snapshot()
	return st, nil
}

// Barrier fences every healthy switch: it returns once each has applied
// all flow-mods issued before the call. Switches with open circuits are
// skipped; connection errors are joined into the returned error.
func (f *Fleet) Barrier() error {
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		errs []error
	)
	for _, id := range f.order {
		w := f.workers[id]
		if !w.brk.allow() {
			continue
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			if err := w.currentClient().Barrier(); err != nil {
				emu.Lock()
				errs = append(errs, fmt.Errorf("fleet: barrier %s: %w", w.id, err))
				emu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Snapshot fetches every reachable agent's counters concurrently and
// merges them with the controller-side telemetry into one fleet-wide view.
func (f *Fleet) Snapshot() *Snapshot {
	snap := &Snapshot{Switches: make([]SwitchSnapshot, len(f.order))}
	var wg sync.WaitGroup
	for i, id := range f.order {
		w := f.workers[id]
		s := &snap.Switches[i]
		wg.Add(1)
		go func(w *worker, s *SwitchSnapshot) {
			defer wg.Done()
			s.ID = w.id
			s.Breaker, s.Trips = w.brk.snapshot()
			w.tele.snapshot(s)
			if w.brk.allow() {
				if st, err := w.currentClient().Stats(); err == nil {
					s.Stats = st
				}
			}
			s.Healthy = s.Breaker == BreakerClosed && s.Stats != nil
		}(w, s)
	}
	wg.Wait()
	snap.finalize()
	return snap
}

// Close shuts every worker down: queued ops fail with ErrFleetClosed,
// in-flight requests are cut, goroutines joined. Safe to call repeatedly.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	var errs []error
	for _, id := range f.order {
		if err := f.workers[id].close(); err != nil &&
			!errors.Is(err, ofwire.ErrClientClosed) && !isClosedConn(err) {
			errs = append(errs, fmt.Errorf("fleet: closing %s: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// isClosedConn reports the benign "use of closed network connection" error
// double-closes produce.
func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed)
}
