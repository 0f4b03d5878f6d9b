// Package fleet is the controller-side fleet control plane: it drives many
// Hermes agents concurrently over the ofwire protocol — the layer between
// the single-agent core and a production deployment of one agent per
// switch (Fig. 2 of the paper, scaled out).
//
// A Fleet owns one worker per switch, with a bounded flow-mod queue and
// no goroutine on the flow-mod path: the goroutine that makes a group of
// queued flow-mods sendable writes it over a pipelined client (many
// requests in flight per connection), and the one that closes a group
// completes the answered groups in order. A worker trips a circuit breaker,
// fed by echo health probes, when its switch dies, so one wedged agent
// fails fast instead of stalling the fleet. An insertion the Gate Keeper
// diverts off the guaranteed path still lands in the main table, and its
// result says so (Path, Guaranteed): what to do about it is the caller's
// call, as in the paper's API. Rules route to switches explicitly or
// consistently by rule ID, and a fleet-wide Snapshot merges every agent's
// counters with client-observed latency percentiles.
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
	// BatchSize caps how many queued flow-mods one worker writes as one
	// group: one flow-mod-batch frame, or that many flow-mod frames back to
	// back on its pipelined connection. Defaults to 16.
	BatchSize int
	// DialTimeout bounds the initial and reconnect dials. Defaults to 2s.
	DialTimeout time.Duration
	// Dial, when non-nil, replaces the plain TCP dial for initial and
	// reconnect connections. The fleet performs the ofwire hello exchange
	// on whatever connection it returns. This is the wire-fault seam:
	// chaos tests hand in faultinject.(*Wire).Dial to perturb the control
	// channel without the fleet knowing.
	Dial func(network, addr string) (net.Conn, error)
	// WireBatch chooses how a worker encodes each group of queued ops:
	// one flow-mod-batch frame, applied with a single wire round trip —
	// amortizing syscalls, the agent's lock acquisition, and its snapshot
	// rebuild across the whole frame — instead of one flow-mod frame per
	// op. Either way a worker takes up to BatchSize queued ops at a time,
	// keeps at most two groups in flight, sends at once on an idle switch
	// and coalesces the next group while one is in flight (BatchLinger);
	// the goroutine that makes a group sendable writes it: a submitter, the
	// one completing the group ahead, or the linger timer. Ops are encoded
	// in queue order, the agent applies frames in arrival order and each
	// frame's ops in order, and groups complete in send order, so per-rule
	// FIFO (an insert followed by a delete of the same rule never
	// reorders) and the per-switch OnResult order hold in both encodings.
	WireBatch bool
	// BatchLinger bounds how long a worker with one group in flight holds
	// queued ops back for the next group: that group goes out when it
	// holds BatchSize ops, when BatchLinger has passed, or when the
	// in-flight group's replies arrive, whichever comes first (Nagle's
	// rule, RFC 896); the linger timer writes it in the second case. A
	// worker with no group in flight never lingers. Defaults to 500µs.
	BatchLinger time.Duration
	// OpTimeout, when > 0, bounds every request the fleet issues on a
	// control channel (flow-mods, barriers, probes, stats). A stalled
	// switch then fails the request with context.DeadlineExceeded instead
	// of wedging the worker forever.
	OpTimeout time.Duration
	// ProbeInterval is the echo health-probe period. Defaults to 100ms.
	ProbeInterval time.Duration
	// Breaker tunes the per-switch circuit breaker.
	Breaker BreakerConfig
	// Obs, when non-nil, exposes per-switch fleet metrics on the registry:
	// queue depth, breaker state and trips, op and reconnect counters, and
	// the control channel's in-flight gauge and RTT histogram, all labeled
	// with the switch ID. Nil disables exposition with zero hot-path cost.
	Obs *obs.Registry
	// OnResult, when non-nil, observes every finished operation — the
	// completion-notification seam a caller (the benchmark's fleet_batch)
	// uses to time or count results without wrapping each result channel.
	// It fires exactly once per submitted op (successes, remote
	// rejections, circuit-open failures, and shutdown drains alike), before
	// the result is delivered to the submitter's channel, one call at a
	// time per switch in submit order.
	// It runs on whichever goroutine completes the op's group, often the
	// switch's client read loop: a blocking OnResult stalls that switch's
	// replies, and calling the fleet synchronously from it deadlocks.
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

	closed atomic.Bool
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

// QueueDepth returns how many queued flow-mods each switch holds before a
// submitter waits for room (Config.QueueDepth, after defaults).
func (f *Fleet) QueueDepth() int { return f.cfg.QueueDepth }

// Route maps a rule ID to its home switch: consistent hashing over the
// sorted switch set, so the same rule always lands on the same switch for
// a given fleet membership.
func (f *Fleet) Route(id classifier.RuleID) string {
	var buf [len("rule-") + 20]byte // 20 = digits of MaxUint64
	key := strconv.AppendUint(append(buf[:0], "rule-"...), uint64(id), 10)
	return f.order[fnv64a(key)%uint64(len(f.order))]
}

// submit queues one op on the switch's worker (more: see worker.submit).
// With the circuit open it fails as its group goes out, behind those ahead.
func (f *Fleet) submit(switchID string, o *op, more bool) (<-chan OpResult, error) {
	if f.closed.Load() {
		return nil, ErrFleetClosed
	}
	w, ok := f.workers[switchID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSwitch, switchID)
	}
	o.done = make(chan OpResult, 1)
	if err := w.submit(o, more); err != nil {
		return nil, err
	}
	return o.done, nil
}

// InsertAsync queues an insertion on the named switch and returns the
// result channel without waiting for the switch; the queue applies
// backpressure when full, and the call may write one group itself.
func (f *Fleet) InsertAsync(switchID string, r classifier.Rule) (<-chan OpResult, error) {
	return f.submit(switchID, &op{kind: intent.OpInsert, rule: r}, false)
}

// DeleteAsync queues a deletion on the named switch, like InsertAsync.
func (f *Fleet) DeleteAsync(switchID string, id classifier.RuleID) (<-chan OpResult, error) {
	return f.submit(switchID, &op{kind: intent.OpDelete, rule: classifier.Rule{ID: id}}, false)
}

// ModifyAsync queues a modification on the named switch, like InsertAsync.
func (f *Fleet) ModifyAsync(switchID string, r classifier.Rule) (<-chan OpResult, error) {
	return f.submit(switchID, &op{kind: intent.OpModify, rule: r}, false)
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
	if f.closed.Load() {
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
	w.health(err)
	return rules, err
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
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	var errs []error
	for _, id := range f.order {
		if err := f.workers[id].close(); err != nil &&
			!errors.Is(err, ofwire.ErrClientClosed) && !isClosedConn(err) {
			errs = append(errs, fmt.Errorf("fleet: closing %s: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// fnv64a hashes s with FNV-1a, for consistent rule→switch routing.
func fnv64a[T string | []byte](s T) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// isClosedConn reports the benign "use of closed network connection" error
// double-closes produce.
func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed)
}
