package core

import (
	"fmt"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/obs"
)

// This file implements the agent's vectored entry points (DESIGN.md §15):
// a whole batch of ops applies under ONE control-plane lock acquisition
// with ONE advance() and ONE snapshot republish at batch end, replacing
// per-op lock round trips and per-op rebuild hysteresis. Inserts
// additionally take a zero-alloc fast path (insertBatched) when the Gate
// Keeper's decision needs no partitioning, with ruleState structs recycled
// through a per-agent freelist — the steady-state batch insert is
// 0 allocs/op, enforced by hermes-vet's hotpathalloc roots.

// BatchKind selects the operation of one BatchOp.
type BatchKind uint8

// Batch op kinds.
const (
	BatchInsert BatchKind = iota + 1
	BatchDelete
	BatchModify
)

// BatchOp is one operation inside a batch. Delete uses only Rule.ID.
type BatchOp struct {
	Kind BatchKind
	Rule classifier.Rule
}

// BatchResult is the outcome of one batch op: exactly what the per-op
// entry point would have returned.
type BatchResult struct {
	Res Result
	Err error
}

// InsertBatch inserts rules in order under one lock acquisition. out, when
// non-nil, is reset and reused as the result buffer (callers on the hot
// path pass a recycled slice so the batch allocates nothing at steady
// state); the returned slice has one entry per rule.
func (a *Agent) InsertBatch(now time.Duration, rules []classifier.Rule, out []BatchResult) []BatchResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	//lint:ignore hotpathalloc the virtual-clock advance allocates only when a migration tick fires, the amortized slow path
	a.advance(now)
	out = resetBatchResults(out, len(rules))
	for i := range rules {
		res, err := a.insertBatched(now, rules[i])
		out = appendBatchResult(out, res, err)
	}
	//lint:ignore hotpathalloc snapshot republish is the amortized once-per-batch slow path
	a.refreshViewLocked()
	return out
}

// DeleteBatch deletes rules by ID in order under one lock acquisition,
// with the same out-buffer contract as InsertBatch.
func (a *Agent) DeleteBatch(now time.Duration, ids []classifier.RuleID, out []BatchResult) []BatchResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	//lint:ignore hotpathalloc the virtual-clock advance allocates only when a migration tick fires, the amortized slow path
	a.advance(now)
	out = resetBatchResults(out, len(ids))
	for _, id := range ids {
		//lint:ignore hotpathalloc delete frees capacity; it is not the 0-alloc target path
		res, err := a.deleteOp(now, id)
		out = appendBatchResult(out, res, err)
	}
	//lint:ignore hotpathalloc snapshot republish is the amortized once-per-batch slow path
	a.refreshViewLocked()
	return out
}

// ApplyBatch applies a mixed batch in order under one lock acquisition,
// with the same out-buffer contract as InsertBatch. Per-op semantics are
// identical to calling Insert/Delete/Modify per op at the same virtual
// time: ops see each other's effects in order, each failure is reported in
// its slot without stopping the batch, and the published lookup snapshot
// is refreshed once at batch end.
func (a *Agent) ApplyBatch(now time.Duration, ops []BatchOp, out []BatchResult) []BatchResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	//lint:ignore hotpathalloc the virtual-clock advance allocates only when a migration tick fires, the amortized slow path
	a.advance(now)
	out = resetBatchResults(out, len(ops))
	for i := range ops {
		var res Result
		var err error
		switch ops[i].Kind {
		case BatchInsert:
			res, err = a.insertBatched(now, ops[i].Rule)
		case BatchDelete:
			//lint:ignore hotpathalloc delete frees capacity; it is not the 0-alloc target path
			res, err = a.deleteOp(now, ops[i].Rule.ID)
		case BatchModify:
			//lint:ignore hotpathalloc modify is delete+insert in the general case; not the 0-alloc target path
			res, err = a.modifyOp(now, ops[i].Rule)
		default:
			err = fmt.Errorf("core: unknown batch op kind %d", ops[i].Kind)
		}
		out = appendBatchResult(out, res, err)
	}
	//lint:ignore hotpathalloc snapshot republish is the amortized once-per-batch slow path
	a.refreshViewLocked()
	return out
}

// resetBatchResults prepares the caller's result buffer: reuse its capacity
// when it can hold n, otherwise grow once up front.
func resetBatchResults(out []BatchResult, n int) []BatchResult {
	if cap(out) >= n {
		return out[:0]
	}
	//lint:ignore hotpathalloc one up-front growth; callers reuse the returned buffer so steady state reallocates nothing
	return make([]BatchResult, 0, n)
}

func appendBatchResult(out []BatchResult, res Result, err error) []BatchResult {
	//lint:ignore hotpathalloc capacity was reserved by resetBatchResults; this append never grows at steady state
	return append(out, BatchResult{Res: res, Err: err})
}

// insertBatched is a.insert with a zero-alloc fast path. The fast path
// applies only when every Gate Keeper decision is already determined to be
// the plain shadow install of the uncut rule:
//
//   - the ID is valid and fresh (reserved/duplicate checks),
//   - the rule is guarded and not a §4.2 bypass candidate,
//   - no main-table rule overlapping it has priority ≥ its own — so
//     Algorithm 1 would leave it uncut (every installed rule has an
//     earlier seq, making equal priority a cut) — probed allocation-free
//     via Trie.OverlapsWhere with the agent's preallocated predicate,
//   - the shadow table has room for the single fragment,
//   - and the token bucket admits it.
//
// All checks before Allow are pure, and a false Allow at the same instant
// is repeatable, so delegating to the allocating slow path (a.insert, which
// re-runs the checks in its own order) is observationally identical: the
// same ops consume the same seqs and tokens in the same order on both
// routes. Once Allow succeeds the fast path is committed — every
// precondition for the uncut shadow install has been verified.
func (a *Agent) insertBatched(now time.Duration, r classifier.Rule) (Result, error) {
	if a.soft != nil {
		//lint:ignore hotpathalloc the cached path's software install is the guaranteed slow tier, not the 0-alloc target path
		return a.insertCached(now, r)
	}
	//lint:ignore hotpathalloc no-op after the batch-start advance at the same now; allocates only when a migration tick fires
	a.advance(now)
	if r.ID >= partIDBase {
		return Result{}, fmt.Errorf("%w: %d", ErrReservedID, r.ID)
	}
	if _, ok := a.rules[r.ID]; ok {
		return Result{}, fmt.Errorf("%w: %d", ErrDuplicateRule, r.ID)
	}
	if !a.guarded(r) ||
		(!a.cfg.DisableLowPriorityBypass && a.isGloballyLowestPriority(r.Priority)) {
		//lint:ignore hotpathalloc unguarded and bypass inserts take the general per-op path
		return a.insert(now, r)
	}
	a.overlapPrio = r.Priority
	if a.mainIndex.OverlapsWhere(r.Match, a.overlapPred) || a.shadow.Free() < 1 {
		// Would be cut by Algorithm 1 (or diverted shadow-full): the
		// general path owns partitioning and all divert bookkeeping.
		//lint:ignore hotpathalloc partitioned and diverted inserts take the general per-op path
		return a.insert(now, r)
	}
	if a.bucket != nil && !a.bucket.Allow(now, 1) {
		// Rate-limited: divert via the general path, which repeats the
		// (repeatable) Allow verdict and installs into the main table.
		//lint:ignore hotpathalloc rate-diverted inserts take the general per-op path
		return a.insert(now, r)
	}

	// Committed: uncut single-fragment shadow install, allocation-free.
	a.metrics.Inserts++
	seq := a.nextSeq
	a.nextSeq++
	//lint:ignore hotpathalloc ranked insert appends into table slices whose capacity is reused at steady state
	cost, err := a.shadow.InsertRanked(r, seq)
	if err != nil {
		// Free() ≥ 1 was checked above; any failure here is a bug.
		panic(fmt.Sprintf("core: shadow insert: %v", err))
	}
	completed := a.sw.SubmitGuaranteed(now, cost)
	//lint:ignore hotpathalloc recycled partIDs capacity, index nodes and ID-list capacity absorb the new rule at steady state
	a.adoptUncutShadow(a.takeRuleState(), r, seq)
	a.arrivals++
	a.metrics.ShadowInserts++
	a.metrics.PartitionsInstalled++

	res := Result{
		Path:       PathShadow,
		Latency:    cost,
		Completed:  completed,
		Guaranteed: true,
		Partitions: 1,
	}
	a.o.recordShadow(completed - now)
	a.o.event(now, obs.EvAdmit, 0, uint64(r.ID), 1, uint64(completed-now))
	//lint:ignore hotpathalloc the flight-recorder capture inside allocates only on a guarantee violation
	a.observeGuaranteed(now, res)
	//lint:ignore hotpathalloc the logical reference table is a testing aid, off in production configs
	a.trackLogical(r)
	a.noteRuleAdded(r.ID)
	return res, nil
}

// adoptUncutShadow makes st the state of r, installed whole in the shadow
// table as its own single entry.
func (a *Agent) adoptUncutShadow(st *ruleState, r classifier.Rule, seq uint64) {
	st.original = r
	st.seq = seq
	st.place = placeShadow
	st.partIDs = append(st.partIDs[:0], r.ID)
	a.rules[r.ID] = st
	a.addShadowResident(r)
}

// deleteOp / modifyOp dispatch a batch op to the cached or carved-pipeline
// implementation, mirroring the per-op entry points.
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

// takeRuleState pops a recycled ruleState (keeping its partIDs capacity)
// or allocates a fresh one during warm-up.
func (a *Agent) takeRuleState() *ruleState {
	if n := len(a.stPool); n > 0 {
		st := a.stPool[n-1]
		a.stPool[n-1] = nil
		a.stPool = a.stPool[:n-1]
		return st
	}
	//lint:ignore hotpathalloc pool warm-up; steady state pops from the freelist
	return &ruleState{}
}

// maxRuleStatePool bounds the freelist so a burst of deletes does not pin
// memory forever.
const maxRuleStatePool = 4096

// recycleRuleState returns a state removed from a.rules to the freelist.
func (a *Agent) recycleRuleState(st *ruleState) {
	if len(a.stPool) >= maxRuleStatePool {
		return
	}
	st.original = classifier.Rule{}
	st.seq = 0
	st.place = placeShadow
	st.partIDs = st.partIDs[:0]
	a.stPool = append(a.stPool, st)
}
