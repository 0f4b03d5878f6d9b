package intent

import (
	"errors"
	"sync"
	"time"

	"hermes/internal/obs"
)

// DirtyReason names the trigger that marked a switch pending. All reasons
// funnel into the same queue key — the reconcile step is level-triggered
// and does not care why it runs, but traces and operators do.
type DirtyReason uint8

// The unified trigger sources.
const (
	// DirtyUpdate: the desired set changed (store generation bump).
	DirtyUpdate DirtyReason = iota + 1
	// DirtyReconnect: the switch's control channel reconnected — it may
	// have restarted with empty tables.
	DirtyReconnect
	// DirtyFault: an injected or detected fault touched the switch.
	DirtyFault
	// DirtyResync: the periodic full-resync tick.
	DirtyResync
)

func (r DirtyReason) String() string {
	switch r {
	case DirtyUpdate:
		return "update"
	case DirtyReconnect:
		return "reconnect"
	case DirtyFault:
		return "fault"
	case DirtyResync:
		return "resync"
	default:
		return "unknown"
	}
}

// Config assembles a Controller. Store, Target, Switches, and Now are
// required; everything else has workable defaults.
type Config struct {
	// Switches is the managed switch set; each gets a reconcile key.
	Switches []string
	// Shards spreads switches across independent queues (and leases) by
	// hash. Defaults to 1.
	Shards int
	// ID is this controller replica's identity for leases and metric
	// labels. Defaults to "ctrl".
	ID string
	// Store holds the desired state. The controller subscribes to it: an
	// effective Set/Delete marks the owning switch dirty.
	Store *Store
	// Target is the switch-facing seam the reconcile step drives.
	Target Target
	// Now is the controller's clock — virtual in harnesses, a process
	// monotonic offset in production. Required; the package never reads
	// the wall clock itself.
	Now func() time.Duration
	// After schedules delayed requeues. Defaults to time.AfterFunc.
	// Harnesses inject a sim.Engine's After so backoff elapses in
	// virtual time.
	After func(time.Duration, func())
	// Resync, when > 0, marks every switch dirty at this period in
	// goroutine mode (Run). Driven controllers resync by calling
	// MarkAll(DirtyResync) from their harness schedule instead.
	Resync time.Duration
	// RateLimit shapes the per-switch requeue backoff.
	RateLimit RateLimit
	// Seed feeds the hash-derived backoff jitter. Defaults to 1.
	Seed int64
	// Leases, when non-nil, gates each shard on holding its lease, for
	// multi-replica failover. Replicas share the table and the Store.
	Leases *LeaseTable
	// Trace, when non-nil, records every trigger, requeue, convergence,
	// lease handoff and halt as obs.EvDirty … obs.EvHalt events, the switch
	// named by its ordinal in Switches. Give each controller its own
	// tracer, sized for the run: a digest of a wrapped ring is refused.
	Trace *obs.Tracer
	// Obs, when non-nil, exposes queue depths, requeue/convergence
	// counters, and the convergence-lag histogram.
	Obs *obs.Registry
	// Permanent classifies errors that must halt a key instead of
	// requeueing it (a closed fleet). Nil treats every error as
	// transient.
	Permanent func(error) bool
}

// ErrConfig is returned by New for an unusable configuration.
var ErrConfig = errors.New("intent: invalid controller config")

type shard struct {
	idx int
	q   *Queue
}

// Controller runs the per-switch level-triggered reconcile loops: one
// queue key per switch, sharded across queues, drained either by an
// owning goroutine per shard (Run) or synchronously by a harness (Step /
// RunUntilQuiesced) — the same reconcile step either way.
type Controller struct {
	cfg     Config
	shards  []*shard
	byShard map[string]int
	ordinal map[string]int // index in cfg.Switches, the traced switch ID

	mu         sync.Mutex
	dirtySince map[string]time.Duration
	converged  map[string]uint64
	halted     map[string]error

	converges *obs.Counter
	lag       *obs.Histogram

	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
	running  bool
}

// New validates the config and builds a controller. The controller
// subscribes to the store; callers then trigger the first reconciles with
// MarkAll (or individual MarkDirty calls) and either Run goroutines or
// drive Step from a harness.
func New(cfg Config) (*Controller, error) {
	if cfg.Store == nil || cfg.Target == nil || cfg.Now == nil || len(cfg.Switches) == 0 {
		return nil, ErrConfig
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.ID == "" {
		cfg.ID = "ctrl"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.After == nil {
		cfg.After = func(d time.Duration, fn func()) { time.AfterFunc(d, fn) }
	}
	cfg.RateLimit = cfg.RateLimit.withDefaults()
	c := &Controller{
		cfg:        cfg,
		byShard:    make(map[string]int, len(cfg.Switches)),
		ordinal:    make(map[string]int, len(cfg.Switches)),
		dirtySince: make(map[string]time.Duration),
		converged:  make(map[string]uint64),
		halted:     make(map[string]error),
		stop:       make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		c.shards = append(c.shards, &shard{
			idx: i,
			q:   newQueue(cfg.RateLimit, cfg.Seed, cfg.After),
		})
	}
	for i, sw := range cfg.Switches {
		if _, dup := c.byShard[sw]; dup {
			return nil, ErrConfig
		}
		c.byShard[sw] = int(fnv64a(sw) % uint64(cfg.Shards))
		c.ordinal[sw] = i
	}
	cfg.Store.Subscribe(func(sw string, _ uint64) { c.MarkDirty(sw, DirtyUpdate) })
	c.registerObs()
	return c, nil
}

// MarkDirty queues the switch for reconciliation. Unknown switches are
// ignored (the store may route rules to switches another controller
// owns); halted switches stay halted.
func (c *Controller) MarkDirty(sw string, why DirtyReason) {
	si, ok := c.byShard[sw]
	if !ok {
		return
	}
	now := c.cfg.Now()
	c.mu.Lock()
	if _, dead := c.halted[sw]; dead {
		c.mu.Unlock()
		return
	}
	if _, pending := c.dirtySince[sw]; !pending {
		c.dirtySince[sw] = now
	}
	c.mu.Unlock()
	c.trace(now, obs.EvDirty, sw, c.cfg.Store.Generation(), uint64(why))
	c.shards[si].q.Add(sw)
}

// MarkAll queues every managed switch — the resync trigger.
func (c *Controller) MarkAll(why DirtyReason) {
	for _, sw := range c.cfg.Switches {
		c.MarkDirty(sw, why)
	}
}

// Step drains every currently-ready key once across all shards the
// controller holds (or can take) a lease for, running reconciles inline
// on the caller's goroutine. It returns the number of reconcile attempts.
// This is the driven mode: a deterministic harness alternates Step with
// advancing its virtual clock.
func (c *Controller) Step() int {
	n := 0
	for _, s := range c.shards {
		if !c.ownShard(s) {
			continue
		}
		for {
			key, ok := s.q.TryGet()
			if !ok {
				break
			}
			c.reconcile(s, key)
			s.q.Done(key)
			n++
		}
	}
	return n
}

// RunUntilQuiesced calls Step until no key is ready, returning the total
// reconcile attempts. Keys requeued with backoff are not ready until the
// harness advances its clock past their delay, so this terminates.
func (c *Controller) RunUntilQuiesced() int {
	total := 0
	for {
		n := c.Step()
		if n == 0 {
			return total
		}
		total += n
	}
}

// ownShard takes or renews the shard's lease, tracing handoffs. Without a
// lease table the controller owns every shard.
func (c *Controller) ownShard(s *shard) bool {
	if c.cfg.Leases == nil {
		return true
	}
	now := c.cfg.Now()
	ok, took := c.cfg.Leases.TryAcquire(s.idx, c.cfg.ID, now)
	if took {
		c.cfg.Trace.Record(now, obs.EvLease, 0, 0, uint64(s.idx), 0)
	}
	return ok
}

// reconcile is the level-triggered step for one switch: observe, diff
// against desired, apply the minimal plan. Failures and unready switches
// requeue with backoff; permanent errors halt the key.
func (c *Controller) reconcile(s *shard, sw string) {
	now := c.cfg.Now()
	if !c.cfg.Target.Ready(sw) {
		c.requeue(s, sw, now)
		return
	}
	desired, gen := c.cfg.Store.Desired(sw)
	observed, err := c.cfg.Target.Observe(sw)
	if err != nil {
		c.fail(s, sw, now, err)
		return
	}
	plan := Diff(desired, observed)
	if len(plan) > 0 {
		if err := c.cfg.Target.Apply(sw, plan); err != nil {
			c.fail(s, sw, now, err)
			return
		}
	}
	end := c.cfg.Now()
	c.mu.Lock()
	since, wasDirty := c.dirtySince[sw]
	delete(c.dirtySince, sw)
	c.converged[sw] = gen
	c.mu.Unlock()
	s.q.Forget(sw)
	if c.converges != nil {
		var lag time.Duration
		if wasDirty {
			lag = end - since
		}
		c.converges.Inc()
		c.lag.RecordDuration(lag)
	}
	c.trace(end, obs.EvConverge, sw, gen, uint64(len(plan)))
}

// fail routes one reconcile error: requeue when transient, halt when the
// config classifies it permanent.
func (c *Controller) fail(s *shard, sw string, now time.Duration, err error) {
	if c.cfg.Permanent != nil && c.cfg.Permanent(err) {
		attempt := s.q.Requeues(sw)
		c.mu.Lock()
		c.halted[sw] = err
		delete(c.dirtySince, sw)
		c.mu.Unlock()
		c.trace(now, obs.EvHalt, sw, uint64(attempt), 0)
		return
	}
	c.requeue(s, sw, now)
}

func (c *Controller) requeue(s *shard, sw string, now time.Duration) {
	d := s.q.AddRateLimited(sw)
	c.trace(now, obs.EvRequeue, sw, uint64(s.q.Requeues(sw)), uint64(d))
}

// trace records one reconciler event about switch sw.
func (c *Controller) trace(at time.Duration, kind obs.EventKind, sw string, a, b uint64) {
	c.cfg.Trace.Record(at, kind, 0, uint64(c.ordinal[sw]), a, b)
}

// ConvergedGeneration reports the store generation the switch's last
// successful reconcile covered.
func (c *Controller) ConvergedGeneration(sw string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gen, ok := c.converged[sw]
	return gen, ok
}

// Halted reports the permanent error that stopped the switch's key, if
// any.
func (c *Controller) Halted(sw string) (error, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	err, ok := c.halted[sw]
	return err, ok
}

// Pending reports how many switches are marked dirty and not yet
// converged (including those waiting out a backoff delay).
func (c *Controller) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.dirtySince)
}

// Run starts goroutine mode: one worker per shard draining its queue on
// signals, plus a resync ticker when configured. Close stops everything.
// Run and Step must not be mixed on the same controller.
func (c *Controller) Run() {
	c.mu.Lock()
	if c.running {
		c.mu.Unlock()
		return
	}
	c.running = true
	c.mu.Unlock()
	for _, s := range c.shards {
		c.wg.Add(1)
		go c.worker(s)
	}
	if c.cfg.Resync > 0 {
		c.wg.Add(1)
		go c.resyncLoop()
	}
}

func (c *Controller) worker(s *shard) {
	defer c.wg.Done()
	for {
		c.drain(s)
		select {
		case <-c.stop:
			return
		case <-s.q.Signal():
		}
	}
}

// drain processes ready keys until the queue empties or the shard's lease
// is lost. Without the lease the items stay queued; a retry poke after
// the TTL re-attempts acquisition so a takeover needs no fresh trigger.
func (c *Controller) drain(s *shard) {
	for {
		if !c.ownShard(s) {
			if c.cfg.Leases != nil && s.q.Len() > 0 {
				c.cfg.After(c.cfg.Leases.TTL(), s.q.poke)
			}
			return
		}
		key, ok := s.q.TryGet()
		if !ok {
			return
		}
		c.reconcile(s, key)
		s.q.Done(key)
		select {
		case <-c.stop:
			return
		default:
		}
	}
}

func (c *Controller) resyncLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Resync)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.MarkAll(DirtyResync)
		}
	}
}

// Close stops goroutine mode and waits for the workers. Safe to call
// repeatedly, and a no-op for driven controllers.
func (c *Controller) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}
