package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/obs"
	"hermes/internal/predict"
	"hermes/internal/rulecache"
	"hermes/internal/tcam"
	"hermes/internal/tokenbucket"
)

// partIDBase is the first rule ID the agent mints for partition fragments.
// Controller-assigned rule IDs must stay below it.
const partIDBase classifier.RuleID = 1 << 40

// Agent errors.
var (
	// ErrGuaranteeInfeasible means the requested bound is below even a
	// shift-free insertion on this switch, so no shadow size can honor it.
	ErrGuaranteeInfeasible = errors.New("core: guarantee below the switch's floor latency")
	// ErrUnknownRule is returned for operations on rules the agent never
	// saw (or already deleted).
	ErrUnknownRule = errors.New("core: unknown rule")
	// ErrDuplicateRule is returned when inserting an ID that is live.
	ErrDuplicateRule = errors.New("core: duplicate rule id")
	// ErrReservedID is returned for controller rules in the agent's
	// internal partition-ID space.
	ErrReservedID = errors.New("core: rule id in reserved partition range")
)

type placement uint8

const (
	placeShadow placement = iota
	placeMain
)

// ruleState tracks where one controller-visible (original) rule currently
// lives and which physical entries realize it.
type ruleState struct {
	original classifier.Rule
	// seq is the rule's logical insertion sequence number; ties in
	// priority are broken by it (earlier wins), exactly as a monolithic
	// TCAM would order equal-priority entries.
	seq   uint64
	place placement
	// partIDs are the physical entry IDs in the shadow table realizing the
	// rule (== {original.ID} when not fragmented). For placeMain it is
	// always {original.ID}.
	partIDs []classifier.RuleID
}

// maxRuleStatePool bounds the freelist so a burst of deletes does not pin
// memory forever.
const maxRuleStatePool = 4096

// newRuleState builds the state of r, on a struct (and partIDs capacity)
// recycled from the freelist when there is one. Every ruleState is made here.
func (a *Agent) newRuleState(r classifier.Rule, seq uint64, place placement, partIDs ...classifier.RuleID) *ruleState {
	var st *ruleState
	if n := len(a.stPool); n > 0 {
		st = a.stPool[n-1]
		a.stPool[n-1] = nil
		a.stPool = a.stPool[:n-1]
	} else {
		st = &ruleState{}
	}
	st.original, st.seq, st.place = r, seq, place
	st.partIDs = append(st.partIDs[:0], partIDs...)
	return st
}

// dropRuleState removes st from a.rules and hands it to the freelist. Every
// exit from a.rules is a call to it: by then the caller has read what it
// needs from st, and nothing else holds a *ruleState across a mutation (a
// demoted rule's next promotion builds a new one from the software tier).
func (a *Agent) dropRuleState(st *ruleState) {
	delete(a.rules, st.original.ID)
	if len(a.stPool) < maxRuleStatePool {
		a.stPool = append(a.stPool, st)
	}
}

// migration is an in-flight background migration (§5.2).
type migration struct {
	startedAt  time.Duration
	completeAt time.Duration
	// originals are the IDs snapshotted for this migration.
	originals []classifier.RuleID
	// naive reports the ablation mode where the shadow was emptied at
	// start instead of at completion.
	naive bool
}

// Agent is one switch's Hermes instance: Gate Keeper + Rule Manager
// (Fig. 3). It is safe for concurrent use: control-plane mutations
// serialize on a write lock (mirroring the single switch-CPU agent), while
// reads take a read lock and packet lookups run lock-free on a published
// snapshot (see view.go), so the data plane waits on the control plane only
// for the one lookup that publishes the snapshot after a write.
type Agent struct {
	// mu is the control-plane lock: mutators hold it exclusively, readers
	// shared. Fields below are protected by it unless noted.
	mu sync.RWMutex

	// view is the atomically published lookup snapshot; logicalGen counts
	// reference-table changes (the tcam tables carry their own generation
	// counters). Both are accessed without mu.
	view       atomic.Pointer[agentView]
	logicalGen atomic.Uint64

	sw     *tcam.Switch
	shadow *tcam.Table
	main   *tcam.Table
	cfg    Config

	shadowSize int
	maxRate    float64 // Equation 2, rules/second
	bucket     *tokenbucket.Bucket

	pmap       *classifier.PartitionMap
	rules      map[classifier.RuleID]*ruleState
	nextPartID classifier.RuleID
	nextSeq    uint64
	// cutter runs Algorithm 1 on buffers it keeps between cuts.
	cutter classifier.Partitioner
	// shadowIndex tracks, by match, the original rules whose place is
	// placeShadow (cut, uncut or redundant); shadowIDs lists the same set in
	// ascending ID order. A main-table change finds the shadow rules it can
	// affect here instead of ranging over every rule.
	shadowIndex classifier.Trie
	shadowIDs   []classifier.RuleID

	arrivals int // shadow entries installed since the last Tick
	migr     *migration
	lastTick time.Duration
	tuner    *autoTuner // non-nil when cfg.AutoTuneSlack

	// needsReconcile is set when a fault (crash/restart, interrupted
	// migration, lost TCAM update) may have diverged the physical tables
	// from the desired rule state; Reconcile clears it.
	needsReconcile bool

	metrics Metrics
	// o is the optional obs wiring (Config.Observer); nil costs one
	// pointer check per instrumented call site.
	o *Observer

	// logical is the reference monolithic table (insertion-ordered) kept
	// when cfg.TrackLogical is set; tests use it to verify equivalence.
	logical []classifier.Rule

	// stPool is the freelist between dropRuleState and newRuleState: at a
	// steady rule count an insert builds its state without allocating.
	stPool []*ruleState

	// --- rule-cache hierarchy (DESIGN.md §16, cache.go) ---------------
	// soft is the authoritative software tier (non-nil iff Config.Cache
	// is set); cmgr is the cache/hit-stats manager (non-nil when Cache or
	// TrackHits). soft's pointer is written once in New and read lock-free
	// on the lookup fast path; its contents mutate only under a.mu.
	soft     *rulecache.SoftTable
	cmgr     *rulecache.Manager
	cacheCfg rulecache.Config
	// residentIndex tracks the hardware-resident original rules by match;
	// residents lists the same set in ascending ID order (covers excluded
	// from both).
	residentIndex classifier.Trie
	residents     []classifier.RuleID
	// covers maps a software-only rule to the cover entries shielding it
	// in the main table; nextCoverID mints their IDs (≥ coverIDBase).
	covers      map[classifier.RuleID][]classifier.RuleID
	nextCoverID classifier.RuleID
	// hygieneDirty holds the matches that entered or left the resident set
	// since the last cover-hygiene pass — the only regions where a
	// software-only rule's need for covers can have changed; hygieneAll
	// makes the next pass sweep every rule instead (after a fault or
	// repair, when the delta cannot be trusted).
	hygieneDirty []classifier.Match
	hygieneAll   bool
	// rankBuf, fallenBuf and hygieneIDs are the rebalance pass's scratch
	// buffers, reused so a pass that changes nothing allocates nothing.
	rankBuf    []rankCand
	fallenBuf  []classifier.RuleID
	hygieneIDs []classifier.RuleID
	// tierRebuilds counts, per tier, the snapshots that froze it anew;
	// viewPublishes counts the snapshots stale readers published (view.go).
	tierRebuilds  [numViewTiers]atomic.Uint64
	viewPublishes atomic.Uint64
	// promoting marks insertSeq calls made by the cache manager itself:
	// background promotions skip the token bucket and the guarantee
	// accounting (they are cache maintenance, not controller actions).
	promoting bool
}

// New creates a Hermes agent on the switch: sizes the shadow table from the
// requested guarantee (the largest occupancy whose worst-case insertion
// stays within the bound), carves the TCAM, and computes the admissible
// rate of Equation 2. The switch must be un-carved and empty.
func New(sw *tcam.Switch, cfg Config) (*Agent, error) {
	cfg = cfg.withDefaults()
	prof := sw.Profile()
	if cfg.Guarantee <= 0 {
		return nil, fmt.Errorf("core: non-positive guarantee %v", cfg.Guarantee)
	}
	size := prof.MaxShiftsWithin(cfg.Guarantee)
	if size == 0 {
		return nil, fmt.Errorf("%w: %v < floor %v on %s",
			ErrGuaranteeInfeasible, cfg.Guarantee, prof.FloorLatency, prof.Name)
	}
	if max := prof.Capacity / 2; size > max {
		size = max
	}
	shadow, main, err := sw.Carve(size)
	if err != nil {
		return nil, err
	}
	if cfg.LinearLookup {
		shadow.SetLinearLookup(true)
		main.SetLinearLookup(true)
	}
	a := &Agent{
		sw:         sw,
		shadow:     shadow,
		main:       main,
		cfg:        cfg,
		shadowSize: size,
		pmap:       classifier.NewPartitionMap(),
		rules:      make(map[classifier.RuleID]*ruleState),
		nextPartID: partIDBase,
		metrics:    newMetrics(),
		o:          cfg.Observer,
	}
	if a.o != nil {
		shadow.SetShiftHistogram(a.o.ShadowShifts)
		main.SetShiftHistogram(a.o.MainShifts)
	}
	a.maxRate = a.computeMaxRate()
	if !cfg.DisableRateLimit {
		a.bucket = tokenbucket.New(a.maxRate, a.burstBudget())
	}
	if cfg.Cache != nil {
		cc := cfg.Cache.WithDefaults()
		if cc.Capacity <= 0 {
			return nil, fmt.Errorf("core: cache capacity must be positive, got %d", cc.Capacity)
		}
		a.cacheCfg = cc
		a.soft = rulecache.NewSoftTable(cc.Profile)
		a.cmgr = rulecache.NewManager(cc)
		a.covers = make(map[classifier.RuleID][]classifier.RuleID)
		a.nextCoverID = coverIDBase
	} else if cfg.TrackHits {
		a.cmgr = rulecache.NewManager(rulecache.Config{})
	}
	if cfg.AutoTuneSlack {
		seed := 1.0
		if s, ok := cfg.Corrector.(predict.Slack); ok && s.Factor > 0 {
			seed = s.Factor
		}
		a.tuner = newAutoTuner(seed)
	}
	return a, nil
}

// burstBudget sizes the token bucket's burst so that an admitted burst
// drains through the serial control-plane processor within roughly one
// guarantee period: B ≈ guarantee / typical-insert-cost. Larger bursts
// would be installed within the bound individually but complete late due
// to queueing, silently voiding the guarantee.
func (a *Agent) burstBudget() float64 {
	typical := a.sw.Profile().InsertLatency(a.shadowSize / 4)
	b := a.cfg.Guarantee.Seconds() / typical.Seconds()
	if b < 4 {
		b = 4
	}
	if max := float64(a.shadowSize) / 2; b > max {
		b = max
	}
	return b
}

// computeMaxRate evaluates Equation 2 — λ = S_ST / (r_p · t_m), with t_m
// estimated as the time to migrate a full shadow table at typical main
// occupancy (half full) using the cheaper of incremental and bulk
// strategies — and additionally caps λ at the control-plane processor's
// sustainable service rate at typical shadow occupancy. Equation 2 bounds
// how fast rules can *leave* the shadow table; the service-rate cap bounds
// how fast they can *enter* it without queueing past the guarantee.
func (a *Agent) computeMaxRate() float64 {
	prof := a.sw.Profile()
	s := a.shadowSize
	mainOcc := a.main.Capacity() / 2
	incremental := time.Duration(s) * prof.InsertLatency(mainOcc)
	bulk := time.Duration(mainOcc+s) * prof.BulkWriteLatency
	tm := incremental
	if bulk < tm {
		tm = bulk
	}
	eq2 := float64(s) / (a.cfg.ExpectedPartitions * tm.Seconds())
	service := 1.0 / (a.cfg.ExpectedPartitions * prof.InsertLatency(s/4).Seconds())
	if service < eq2 {
		return service
	}
	return eq2
}

// MaxRate returns the guaranteed-insertion rate (rules/second) the agent
// admits — the value CreateTCAMQoS reports to the operator (§7).
func (a *Agent) MaxRate() float64 { return a.maxRate }

// ShadowSize returns the carved shadow-table capacity.
func (a *Agent) ShadowSize() int { return a.shadowSize }

// OverheadFraction returns the TCAM fraction sacrificed for the guarantee —
// the quantity QoSOverheads reports and Figure 14 plots.
func (a *Agent) OverheadFraction() float64 {
	return float64(a.shadowSize) / float64(a.sw.Profile().Capacity)
}

// Guarantee returns the configured insertion bound.
func (a *Agent) Guarantee() time.Duration { return a.cfg.Guarantee }

// Switch returns the underlying switch (for lookups in tests and the
// simulator).
func (a *Agent) Switch() *tcam.Switch { return a.sw }

// Metrics returns a copy of the agent's counters. The histogram fields
// share state with the live metrics (cheap, read-only view); use
// Metrics().Snapshot() to carry them across a concurrency boundary.
func (a *Agent) Metrics() Metrics {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.metrics
}

// ShadowOccupancy reports the live shadow-table entry count.
func (a *Agent) ShadowOccupancy() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.shadow.Occupancy()
}

// MainOccupancy reports the live main-table entry count.
func (a *Agent) MainOccupancy() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.main.Occupancy()
}

// SetPredicate swaps the guarantee predicate in place (ModQoSMatch, §7).
func (a *Agent) SetPredicate(pred Predicate) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cfg.Predicate = pred
}

// Migrating reports whether a background migration is in flight at now.
func (a *Agent) Migrating(now time.Duration) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.advance(now)
	return a.migr != nil
}

func (a *Agent) mintPartID() classifier.RuleID {
	id := a.nextPartID
	a.nextPartID++
	return id
}

// LastPartID returns the most recently minted partition-fragment ID. Minting
// order is behaviour (fragment IDs decide TCAM positions among a rule's
// entries), so agents fed the same operations must agree on it.
func (a *Agent) LastPartID() classifier.RuleID {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.nextPartID - 1
}

// guarded reports whether the rule falls under the configured guarantee
// predicate.
func (a *Agent) guarded(r classifier.Rule) bool {
	return a.cfg.Predicate == nil || a.cfg.Predicate(r)
}

// Insert is the Gate Keeper's flow-mod insertion entry point.
func (a *Agent) Insert(now time.Duration, r classifier.Rule) (Result, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.insertOp(now, r)
}

// insertOp, deleteOp and modifyOp route one flow-mod to the cached
// (DESIGN.md §16) or the carved-pipeline implementation. The per-op entry
// points and ApplyBatch all go through them, with a.mu held exclusively.
func (a *Agent) insertOp(now time.Duration, r classifier.Rule) (Result, error) {
	if a.soft != nil {
		return a.insertCached(now, r)
	}
	return a.insert(now, r)
}

func (a *Agent) deleteOp(now time.Duration, id classifier.RuleID) (Result, error) {
	if a.soft != nil {
		return a.deleteCached(now, id)
	}
	return a.deleteRule(now, id)
}

func (a *Agent) modifyOp(now time.Duration, r classifier.Rule) (Result, error) {
	if a.soft != nil {
		return a.modifyCached(now, r)
	}
	return a.modifyLocked(now, r)
}

// insert validates the rule, mints its tie-breaking sequence number, and
// routes it through the Gate Keeper (insertSeq). It owns the bookkeeping
// that must happen exactly once per controller-visible insert — the Inserts
// counter, the logical reference table, and the hit-stats record — so that
// insertSeq can also serve cache promotions, which re-install an existing
// rule under its original seq.
func (a *Agent) insert(now time.Duration, r classifier.Rule) (Result, error) {
	a.advance(now)
	if r.ID >= partIDBase {
		return Result{}, fmt.Errorf("%w: %d", ErrReservedID, r.ID)
	}
	if _, ok := a.rules[r.ID]; ok {
		return Result{}, fmt.Errorf("%w: %d", ErrDuplicateRule, r.ID)
	}
	a.metrics.Inserts++
	seq := a.nextSeq
	a.nextSeq++
	res, err := a.insertSeq(now, r, seq)
	if err != nil {
		return res, err
	}
	a.trackLogical(r)
	a.noteRuleAdded(r.ID)
	return res, nil
}

// insertSeq is the Gate Keeper's routing core: bypass, admission control,
// Algorithm 1 partitioning, and the shadow/main install paths, for a rule
// whose seq is already minted. Callers handle validation and per-insert
// bookkeeping.
func (a *Agent) insertSeq(now time.Duration, r classifier.Rule, seq uint64) (Result, error) {
	if !a.guarded(r) {
		return a.insertMain(now, r, seq)
	}

	// §4.2 optimization: a rule that is the lowest priority everywhere
	// appends to the main table shift-free, and cannot shadow anything.
	if !a.cfg.DisableLowPriorityBypass && a.isGloballyLowestPriority(r.Priority) {
		res, err := a.insertMainRawLane(now, r, seq, true)
		if err != nil {
			return res, err
		}
		res.Path = PathBypass
		res.Guaranteed = true // costs only the floor latency by construction
		a.metrics.Bypasses++
		a.o.recordBypass(res.Completed - now)
		a.o.event(now, obs.EvBypass, 0, uint64(r.ID), 0, uint64(res.Completed-now))
		a.observeGuaranteed(now, res)
		return res, nil
	}

	// Admission control (token bucket): overruns go to the main table.
	// Cache promotions bypass the bucket — they are background maintenance
	// and must not starve controller admissions.
	if a.bucket != nil && !a.promoting && !a.bucket.Allow(now, 1) {
		a.metrics.RateLimited++
		a.o.event(now, obs.EvDivertRate, 0, uint64(r.ID), uint64(a.bucket.Tokens(now)), 0)
		return a.insertMain(now, r, seq)
	}

	// Algorithm 1: partition against higher-priority main-table rules.
	part := a.partition(r, seq)
	if part.Overflow {
		// Footnote 5: partitioning abandoned — install into the main table.
		a.metrics.Oversized++
		a.o.event(now, obs.EvDivertSize, 0, uint64(r.ID), 0, 0)
		return a.insertMain(now, r, seq)
	}
	if part.Redundant() {
		a.rules[r.ID] = a.newRuleState(r, seq, placeShadow)
		a.addShadowResident(r)
		a.pmap.Record(part)
		a.metrics.Redundant++
		a.o.event(now, obs.EvRedundant, 0, uint64(r.ID), 0, 0)
		return Result{Path: PathRedundant, Completed: now, Guaranteed: true}, nil
	}
	if len(part.Parts) > a.cfg.MaxPartitions {
		// Footnote 5: pathological fragmentation — install the original
		// directly in the main table instead.
		a.metrics.Oversized++
		a.o.event(now, obs.EvDivertSize, 0, uint64(r.ID), uint64(len(part.Parts)), 0)
		return a.insertMain(now, r, seq)
	}
	if a.shadow.Free() < len(part.Parts) {
		// Shadow exhausted: fall back to the main table (§5.2 calls this a
		// potential performance violation).
		a.metrics.ShadowFull++
		a.o.event(now, obs.EvDivertFull, 0, uint64(r.ID), uint64(a.shadow.Free()), 0)
		return a.insertMain(now, r, seq)
	}

	// Guaranteed path: install the fragments in the shadow table.
	var total time.Duration
	completed := now
	st := a.newRuleState(r, seq, placeShadow)
	for _, p := range part.Parts {
		cost, err := a.shadow.InsertRanked(p, seq)
		if err != nil {
			// Capacity was checked above; any failure here is a bug.
			panic(fmt.Sprintf("core: shadow insert: %v", err))
		}
		total += cost
		completed = a.sw.SubmitGuaranteed(now, cost)
		st.partIDs = append(st.partIDs, p.ID)
	}
	a.rules[r.ID] = st
	a.addShadowResident(r)
	a.pmap.Record(part)
	a.arrivals += len(part.Parts)
	a.metrics.ShadowInserts++
	a.metrics.PartitionsInstalled += len(part.Parts)
	if part.WasCut() {
		a.metrics.RulesCut++
	}

	res := Result{
		Path:       PathShadow,
		Latency:    total,
		Completed:  completed,
		Guaranteed: true,
		Partitions: len(part.Parts),
	}
	a.o.recordShadow(completed - now)
	a.o.event(now, obs.EvAdmit, 0, uint64(r.ID), uint64(len(part.Parts)), uint64(completed-now))
	a.observeGuaranteed(now, res)
	return res, nil
}

// partition runs Algorithm 1 for a rule with seq-aware tie-breaking: a
// main-table rule beats r when it has higher priority, or equal priority
// and an earlier insertion sequence (as in a monolithic TCAM).
func (a *Agent) partition(r classifier.Rule, seq uint64) classifier.Partition {
	wins := func(existing classifier.Rule) bool {
		return a.beats(existing, r.Priority, seq)
	}
	// The working-set cap is above MaxPartitions so that merging still has
	// a chance to bring a busy cut back under the limit, but pathological
	// rules bail out long before cutting against the whole table.
	return a.cutter.Partition(r, a.main.OverlapCandidates(r.Match), wins, a.mintPartID,
		!a.cfg.DisableMergeOptimization, 8*a.cfg.MaxPartitions)
}

// addShadowResident / dropShadowResident keep the shadow-resident index and
// its ID-ordered list in step with the rules whose place is placeShadow.
func (a *Agent) addShadowResident(r classifier.Rule) {
	a.shadowIndex.Insert(r)
	i, _ := slices.BinarySearch(a.shadowIDs, r.ID)
	a.shadowIDs = slices.Insert(a.shadowIDs, i, r.ID)
}

// Dropping a rule that is not indexed is a no-op: the post-migration re-check
// can re-cut a rule that an earlier re-cut in the same pass already moved to
// the main table.
func (a *Agent) dropShadowResident(r classifier.Rule) {
	a.shadowIndex.Delete(r.Match.Dst, r.ID)
	if i, ok := slices.BinarySearch(a.shadowIDs, r.ID); ok {
		a.shadowIDs = slices.Delete(a.shadowIDs, i, i+1)
	}
}

// beats reports whether an installed rule would beat a (priority, seq)
// contender in a monolithic table.
func (a *Agent) beats(existing classifier.Rule, priority int32, seq uint64) bool {
	if existing.Priority != priority {
		return existing.Priority > priority
	}
	st, ok := a.rules[existing.ID]
	if !ok {
		return true // unknown provenance: cut conservatively
	}
	return st.seq < seq
}

// isGloballyLowestPriority reports whether priority is ≤ every installed
// entry's priority in both tables, the §4.2 bypass precondition. (Against
// the shadow table the comparison guards correctness: a bypassed main rule
// must not be shadowed by an overlapping lower-priority shadow entry.)
func (a *Agent) isGloballyLowestPriority(priority int32) bool {
	if _, shifts := a.main.InsertPosition(priority); shifts != 0 {
		return false
	}
	if _, shifts := a.shadow.InsertPosition(priority); shifts != 0 {
		return false
	}
	return true
}

// insertMain installs a rule on the unguaranteed main path and repairs any
// shadow rules the new main rule would be shadowed by.
func (a *Agent) insertMain(now time.Duration, r classifier.Rule, seq uint64) (Result, error) {
	res, err := a.insertMainRaw(now, r, seq)
	if err != nil {
		return res, err
	}
	a.metrics.MainInserts++
	a.metrics.observeLatency(res.Latency, false)
	a.o.recordMain(res.Latency)
	a.o.event(now, obs.EvMainInsert, 0, uint64(r.ID), 0, uint64(res.Latency))
	return res, nil
}

// insertMainRaw physically installs into the main table and re-cuts
// lower-priority shadow rules that the new rule must win over (otherwise the
// shadow-first lookup would return them).
func (a *Agent) insertMainRaw(now time.Duration, r classifier.Rule, seq uint64) (Result, error) {
	return a.insertMainRawLane(now, r, seq, false)
}

// insertMainRawLane optionally uses the guaranteed control-plane lane (the
// §4.2 bypass is a guaranteed action even though it lands in the main
// table — it is shift-free by construction).
func (a *Agent) insertMainRawLane(now time.Duration, r classifier.Rule, seq uint64, guaranteed bool) (Result, error) {
	cost, err := a.main.InsertRanked(r, seq)
	if err != nil {
		return Result{}, err
	}
	var completed time.Duration
	if guaranteed {
		completed = a.sw.SubmitGuaranteed(now, cost)
	} else {
		completed = a.sw.Submit(now, cost)
	}
	a.rules[r.ID] = a.newRuleState(r, seq, placeMain, r.ID)
	a.repairShadowAfterMainInsert(now, r)
	return Result{Path: PathMain, Latency: cost, Completed: completed}, nil
}

// repairShadowAfterMainInsert re-partitions shadow-resident originals that
// overlap a newly installed main rule with lower-or-equal priority; without
// the re-cut the shadow-first lookup would let them shadow the new rule.
func (a *Agent) repairShadowAfterMainInsert(now time.Duration, mainRule classifier.Rule) {
	// Collect candidates first (sorted for determinism) because the repair
	// may move rules between tables.
	ids := a.appendShadowRulesBeatenBy(nil, mainRule)
	slices.Sort(ids)
	for _, id := range ids {
		if st, ok := a.rules[id]; ok && st.place == placeShadow {
			a.reinstallShadowRule(now, st)
		}
	}
}

// appendShadowRulesBeatenBy appends the IDs of the shadow-resident originals
// that overlap mainRule and lose to it — the only shadow rules a main-table
// rule can force a re-cut of; the others legitimately win (priority or age).
// The IDs come in index order, not sorted.
func (a *Agent) appendShadowRulesBeatenBy(ids []classifier.RuleID, mainRule classifier.Rule) []classifier.RuleID {
	it := a.shadowIndex.OverlapCandidates(mainRule.Match)
	for r, ok := it.Next(); ok; r, ok = it.Next() {
		if r.ID != mainRule.ID && a.beats(mainRule, r.Priority, a.rules[r.ID].seq) {
			ids = append(ids, r.ID)
		}
	}
	return ids
}

// reinstallShadowRule deletes a shadow rule's current fragments and
// re-installs it freshly partitioned against the current main table. When
// the shadow table cannot hold the new fragments the rule is moved to the
// main table instead.
func (a *Agent) reinstallShadowRule(now time.Duration, st *ruleState) {
	for _, pid := range st.partIDs {
		if cost, ok := a.shadow.Delete(pid); ok {
			a.sw.SubmitGuaranteed(now, cost)
		}
	}
	part := a.partition(st.original, st.seq)
	a.o.recordRecut(len(part.Cause))
	if !part.Overflow && part.Redundant() {
		st.partIDs = st.partIDs[:0]
		a.pmap.Record(part)
		return
	}
	if part.Overflow || len(part.Parts) > a.cfg.MaxPartitions || a.shadow.Free() < len(part.Parts) {
		// Out of shadow room: fall back to the main table.
		a.pmap.Remove(st.original.ID)
		cost, err := a.main.InsertRanked(st.original, st.seq)
		if err == nil {
			a.sw.Submit(now, cost)
			a.dropShadowResident(st.original)
			st.place = placeMain
			st.partIDs = []classifier.RuleID{st.original.ID}
			a.repairShadowAfterMainInsert(now, st.original)
		}
		// A full main table leaves the rule uninstalled; the controller
		// sees table-full semantics exactly as on a real switch.
		return
	}
	// The deleted fragments' ID list is reused for the new ones.
	st.partIDs = st.partIDs[:0]
	for _, p := range part.Parts {
		cost, err := a.shadow.InsertRanked(p, st.seq)
		if err != nil {
			panic(fmt.Sprintf("core: shadow reinstall: %v", err))
		}
		a.sw.SubmitGuaranteed(now, cost)
		st.partIDs = append(st.partIDs, p.ID)
	}
	a.pmap.Record(part)
	a.metrics.Repartitions++
}

// Delete removes a rule by its controller-visible ID (§4.1).
func (a *Agent) Delete(now time.Duration, id classifier.RuleID) (Result, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.deleteOp(now, id)
}

func (a *Agent) deleteRule(now time.Duration, id classifier.RuleID) (Result, error) {
	a.advance(now)
	st, ok := a.rules[id]
	if !ok {
		return Result{}, fmt.Errorf("%w: %d", ErrUnknownRule, id)
	}
	a.metrics.Deletes++
	total, completed := a.removePhysical(now, st)
	a.dropRuleState(st)
	a.untrackLogical(id)
	a.noteRuleRemoved(id)
	a.o.recordDelete(total)
	a.o.event(now, obs.EvDelete, 0, uint64(id), 0, uint64(total))
	return Result{Latency: total, Completed: completed, Guaranteed: true}, nil
}

// removePhysical deletes a rule's physical entries from the carved tables
// and repairs dependent shadow rules (the Fig. 6 un-merge), leaving the
// a.rules entry for the caller to drop. Shared by deleteRule and the cache
// manager's demotion/cover paths.
func (a *Agent) removePhysical(now time.Duration, st *ruleState) (time.Duration, time.Duration) {
	var total time.Duration
	completed := now
	id := st.original.ID
	switch st.place {
	case placeShadow:
		// Delete the rule or all of its partitions — never both exist.
		for _, pid := range st.partIDs {
			if cost, ok := a.shadow.Delete(pid); ok {
				total += cost
				completed = a.sw.SubmitGuaranteed(now, cost)
			}
		}
		a.pmap.Remove(id)
		a.dropShadowResident(st.original)
	case placeMain:
		// One entry under the rule's own ID, or — migrated under the
		// fragment ablation — its fragments, whose partition record goes too.
		for _, pid := range st.partIDs {
			if cost, ok := a.main.Delete(pid); ok {
				total += cost
				completed = a.sw.Submit(now, cost)
			}
		}
		a.pmap.Remove(id)
		// Fig. 6: un-partition the shadow rules these entries had cut.
		for _, pid := range st.partIDs {
			for _, dep := range a.pmap.DependentsOf(pid) {
				if depSt, ok := a.rules[dep]; ok && depSt.place == placeShadow {
					a.reinstallShadowRule(now, depSt)
				}
			}
		}
	}
	return total, completed
}

// Modify updates a live rule. Action-only changes apply in place at
// constant cost (§2.1); priority or match changes are converted into a
// delete of the original plus an insertion of the modified rule (§4.1).
func (a *Agent) Modify(now time.Duration, r classifier.Rule) (Result, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.modifyOp(now, r)
}

func (a *Agent) modifyLocked(now time.Duration, r classifier.Rule) (Result, error) {
	a.advance(now)
	st, ok := a.rules[r.ID]
	if !ok {
		return Result{}, fmt.Errorf("%w: %d", ErrUnknownRule, r.ID)
	}
	a.metrics.Modifies++
	a.o.event(now, obs.EvModify, 0, uint64(r.ID), 0, 0)
	if st.original.Priority == r.Priority && st.original.Match == r.Match {
		total, completed := a.rewriteAction(now, st, r.Action)
		a.retrackLogical(st.original)
		a.o.recordModify(total)
		return Result{Latency: total, Completed: completed, Guaranteed: true}, nil
	}
	// Priority/match change: delete + insert.
	if _, err := a.deleteRule(now, r.ID); err != nil {
		return Result{}, err
	}
	return a.insert(now, r)
}

// rewriteAction is the cheap half of Modify (§2.1): it rewrites the action of
// a hardware-resident rule's physical entries in place — constant cost, no
// reordering — and of every copy the agent keeps: the original, its recorded
// fragments (what Reconcile writes back) and the indexes that list it.
func (a *Agent) rewriteAction(now time.Duration, st *ruleState, act classifier.Action) (total, completed time.Duration) {
	tbl := a.shadow
	if st.place == placeMain {
		tbl = a.main
	}
	completed = now
	for _, pid := range st.partIDs {
		if cost, ok := tbl.ModifyAction(pid, act); ok {
			total += cost
			completed = a.sw.Submit(now, cost)
		}
	}
	st.original.Action = act
	if p, ok := a.pmap.Lookup(st.original.ID); ok {
		p.Original.Action = act
		for i := range p.Parts {
			p.Parts[i].Action = act
		}
	}
	if st.place == placeShadow {
		a.shadowIndex.Update(st.original.Match.Dst, st.original)
	}
	if a.soft != nil {
		a.residentIndex.Update(st.original.Match.Dst, st.original)
	}
	return total, completed
}

// Lookup resolves a packet against the carved pipeline (shadow first, then
// main), as the switch data plane would; in cached mode a hardware miss or
// cover hit continues into the authoritative software tier (DESIGN.md §16).
// It validates the published snapshot with atomic generation loads and runs
// without the agent lock; the lookup that finds the snapshot stale (a
// control-plane write landed) publishes the next one first. Only the
// Config.LinearLookup oracle reads the live tables, under the read lock.
func (a *Agent) Lookup(dst, src uint32) (classifier.Rule, bool) {
	v := a.view.Load()
	if v != nil && v.shadowGen == a.shadow.Gen() && v.mainGen == a.main.Gen() &&
		v.softGen == a.softGen() {
		return v.lookup(dst, src)
	}
	if !a.cfg.LinearLookup {
		//lint:ignore hotpathalloc the stale reader publishes: one agentView, plus the hit map and the reference tier when they moved
		return a.publishView().lookup(dst, src)
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	r, ok := a.sw.Lookup(dst, src)
	if a.soft == nil {
		a.recordPlainHit(r, ok)
		return r, ok
	}
	return a.finishCachedLookup(dst, src, r, ok)
}

// softGen returns the software tier's generation counter (0 when uncached).
// Lock-free: a.soft is written once in New.
func (a *Agent) softGen() uint64 {
	if a.soft == nil {
		return 0
	}
	return a.soft.Gen()
}

func (a *Agent) observeGuaranteed(now time.Duration, res Result) {
	if a.promoting {
		// Background cache promotions are maintenance, not controller
		// actions: they carry no guarantee to account or violate.
		return
	}
	lat := res.Completed - now
	a.metrics.observeLatency(lat, true)
	if lat > a.cfg.Guarantee {
		a.metrics.Violations++
		overrun := lat - a.cfg.Guarantee
		a.o.recordOverrun(overrun)
		a.o.event(now, obs.EvViolation, 0, 0, uint64(overrun), uint64(lat))
		// Flight recorder: freeze the events leading up to the violation.
		a.o.capture(now, "guarantee violation: latency %v > bound %v", lat, a.cfg.Guarantee)
	}
}

// --- logical reference table (testing aid) -------------------------------

func (a *Agent) trackLogical(r classifier.Rule) {
	if a.cfg.TrackLogical {
		a.logical = append(a.logical, r)
		a.logicalGen.Add(1)
	}
}

func (a *Agent) untrackLogical(id classifier.RuleID) {
	if !a.cfg.TrackLogical {
		return
	}
	for i, r := range a.logical {
		if r.ID == id {
			a.logical = append(a.logical[:i], a.logical[i+1:]...)
			a.logicalGen.Add(1)
			return
		}
	}
}

func (a *Agent) retrackLogical(r classifier.Rule) {
	if !a.cfg.TrackLogical {
		return
	}
	for i := range a.logical {
		if a.logical[i].ID == r.ID {
			a.logical[i] = r
			a.logicalGen.Add(1)
			return
		}
	}
}

// LogicalLookup resolves a packet against the reference monolithic table
// (highest priority wins, earlier insertion breaks ties). Only valid when
// cfg.TrackLogical is set. Like Lookup it runs on the published snapshot;
// the Config.LinearLookup oracle is the read-locked linear reference scan.
func (a *Agent) LogicalLookup(dst, src uint32) (classifier.Rule, bool) {
	if a.cfg.TrackLogical && !a.cfg.LinearLookup {
		v := a.view.Load()
		if v == nil || v.logicalGen != a.logicalGen.Load() {
			//lint:ignore hotpathalloc the stale reader publishes: one agentView, plus the hit map and the reference tier when they moved
			v = a.publishView()
		}
		return v.logical.Lookup(dst, src)
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	var best classifier.Rule
	found := false
	for _, r := range a.logical {
		if !r.Match.MatchesPacket(dst, src) {
			continue
		}
		if !found || r.Priority > best.Priority {
			best, found = r, true
		}
	}
	return best, found
}

// LogicalRules returns a copy of the reference table (TrackLogical only).
func (a *Agent) LogicalRules() []classifier.Rule {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return append([]classifier.Rule(nil), a.logical...)
}

// Rules returns the controller-visible rule set the agent currently holds
// — the original (unfragmented) rules, sorted by ID. This is the state a
// level-triggered reconciler diffs a desired set against: it reflects
// what the agent believes is installed, and the agent's own
// CheckConsistency/Reconcile pair keeps it faithful to the physical
// tables across crashes and truncations. In cached mode the authoritative
// set is the software tier (internal cover rules never appear).
func (a *Agent) Rules() []classifier.Rule {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.soft != nil {
		return a.soft.Rules()
	}
	out := make([]classifier.Rule, 0, len(a.rules))
	for _, st := range a.rules {
		out = append(out, st.original)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TracksLogical reports whether the agent maintains the reference
// monolithic table (Config.TrackLogical).
func (a *Agent) TracksLogical() bool { return a.cfg.TrackLogical }
