package tcam

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/obs"
)

// Common table errors.
var (
	// ErrTableFull is returned when an insertion would exceed capacity.
	ErrTableFull = errors.New("tcam: table full")
	// ErrDuplicateID is returned when a rule ID is already present.
	ErrDuplicateID = errors.New("tcam: duplicate rule id")
)

// Op identifies one TCAM mutation class for the fault-injection hook.
type Op uint8

// TCAM operation classes.
const (
	// OpInsert covers Insert and InsertRanked.
	OpInsert Op = iota
	// OpDelete covers Delete.
	OpDelete
	// OpModify covers ModifyAction and ModifyPriority.
	OpModify
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpModify:
		return "modify"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// OpFault is a fault hook's verdict for one TCAM operation. Extra is added
// to the modeled hardware latency (a slow op); Drop makes the hardware ack
// the operation without applying it — the lost-update failure mode of a
// crashing update engine. Dropped operations report success to the caller,
// so the agent's view and the physical table silently diverge; that
// divergence is exactly what core.(*Agent).Reconcile repairs.
type OpFault struct {
	Extra time.Duration
	Drop  bool
}

// OpFaultHook inspects one TCAM operation and returns the fault to apply.
// The zero OpFault means "run normally". Hooks must be deterministic
// (scripted or seeded) so fault schedules replay identically.
type OpFaultHook func(op Op, id classifier.RuleID) OpFault

// entryMeta is the per-rule bookkeeping record: the sort key the entry is
// physically placed by. slotOf recovers the entry's slot from it with one
// binary search instead of a table scan.
type entryMeta struct {
	priority int32
	// rank breaks priority ties: lower rank sits higher (see Table.ranks).
	rank uint64
}

// Table is one TCAM slice: a priority-ordered entry list with the shift-cost
// insertion behaviour of real TCAMs. Entries are kept in descending priority
// order; among equal priorities the earlier-inserted rule sits higher, which
// yields first-match semantics identical to hardware.
//
// Every mutating operation returns the modeled hardware latency so callers
// (the Hermes agent, the simulator) can account for control-plane time.
//
// Alongside the physical entry list the table maintains two indexes: meta
// (ID → sort key) so Get/Delete/Modify* locate a slot without scanning, and
// a destination-prefix trie, each entry keyed by its placement, so Lookup
// only visits the entries whose Dst can match the packet and Snapshot hands
// the same index to lock-free readers. SetLinearLookup(true) reverts Lookup
// to the full scan — kept as the differential-testing oracle, never as the
// production path.
type Table struct {
	name     string
	capacity int
	profile  *Profile
	entries  []classifier.Rule
	// ranks break priority ties: lower rank sits higher, mirroring the
	// earlier-inserted-wins order of a monolithic TCAM. Plain Insert
	// auto-assigns increasing ranks; the Hermes agent passes its logical
	// sequence numbers so migrated rules regain their original standing.
	ranks    []uint64
	nextRank uint64

	// meta maps installed rule IDs to their placement key; it replaces the
	// old presence set and makes rule bookkeeping O(log n) instead of O(n).
	meta map[classifier.RuleID]entryMeta
	// index holds exactly the installed entries by destination prefix, each
	// keyed (rank, ord) so that the trie's first-match order is slot order.
	// ord is a per-table arrival stamp: within an equal (priority, rank)
	// group physical order equals ascending ord, because insertions always
	// place new equals below existing ones.
	index   classifier.Trie
	nextOrd uint64
	// linear reverts Lookup to the full-scan oracle.
	linear bool

	// gen counts state changes. It is atomic so lock-free readers (the
	// agent's snapshot path) can cheaply validate a cached view even when
	// harnesses mutate the table behind the agent's back (CrashRestart).
	gen atomic.Uint64

	// fault, when non-nil, is consulted before every mutation (the
	// fault-injection seam used by internal/faultinject).
	fault OpFaultHook

	// Counters for the overhead experiments.
	totalShifts  int
	totalInserts int
	totalDeletes int
	totalMods    int
	droppedOps   int

	// shiftHist, when non-nil, receives the entry-shift count of every
	// ranked insert and priority modify (the obs wiring; recording is
	// lock-free and allocation-free).
	shiftHist *obs.Histogram
}

// SetShiftHistogram attaches (or, with nil, detaches) an obs histogram
// that records the per-operation shift counts — the quantity the paper's
// latency model is built on, since insertion latency is linear in shifts.
func (t *Table) SetShiftHistogram(h *obs.Histogram) { t.shiftHist = h }

// SetFaultHook installs (or, with nil, removes) the per-operation fault
// hook. Intended for fault-injection harnesses only.
func (t *Table) SetFaultHook(h OpFaultHook) { t.fault = h }

// DroppedOps reports how many operations the fault hook silently dropped.
func (t *Table) DroppedOps() int { return t.droppedOps }

// faultFor consults the hook for one operation.
func (t *Table) faultFor(op Op, id classifier.RuleID) OpFault {
	if t.fault == nil {
		return OpFault{}
	}
	return t.fault(op, id)
}

// NewTable creates an empty table. Capacity may be smaller than the
// profile's full capacity when the table is a carved slice.
func NewTable(name string, capacity int, profile *Profile) *Table {
	if capacity <= 0 {
		panic(fmt.Sprintf("tcam: table %q capacity %d", name, capacity))
	}
	return &Table{
		name:     name,
		capacity: capacity,
		profile:  profile,
		meta:     make(map[classifier.RuleID]entryMeta),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Capacity returns the number of entries the slice can hold.
func (t *Table) Capacity() int { return t.capacity }

// Occupancy returns the number of installed entries.
func (t *Table) Occupancy() int { return len(t.entries) }

// Free returns the remaining entry slots.
func (t *Table) Free() int { return t.capacity - len(t.entries) }

// Profile returns the switch profile backing the latency model.
func (t *Table) Profile() *Profile { return t.profile }

// Gen returns the table's state-change generation. Any mutation — including
// out-of-band ones like Wipe from a crash harness — bumps it, so a reader
// holding a derived snapshot can detect staleness with one atomic load.
func (t *Table) Gen() uint64 { return t.gen.Load() }

// SetLinearLookup selects the full-scan lookup path (true) or the trie-
// indexed one (false, the default). The linear path exists as the
// differential-testing oracle.
func (t *Table) SetLinearLookup(v bool) { t.linear = v }

// Contains reports whether a rule ID is installed.
func (t *Table) Contains(id classifier.RuleID) bool {
	_, ok := t.meta[id]
	return ok
}

// Rules returns the installed rules in TCAM order (highest priority first).
// The returned slice is a copy.
func (t *Table) Rules() []classifier.Rule {
	return append([]classifier.Rule(nil), t.entries...)
}

// InsertPosition returns the index at which a rule with the given priority
// would be placed by a plain Insert (below all equal priorities), and the
// number of entries that insertion would shift.
func (t *Table) InsertPosition(priority int32) (pos, shifts int) {
	return t.insertPositionRanked(priority, ^uint64(0))
}

// insertPositionRanked places by (priority desc, rank asc). Among equal
// (priority, rank) the new entry lands below existing ones — the invariant
// the index's ord stamps depend on.
func (t *Table) insertPositionRanked(priority int32, rank uint64) (pos, shifts int) {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		e := t.entries[mid]
		if e.Priority > priority || (e.Priority == priority && t.ranks[mid] <= rank) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, len(t.entries) - lo
}

// slotOf locates an installed rule's slot: binary-search to the start of
// its (priority, rank) group, then walk the (almost always tiny) group.
// Returns -1 if the ID is not installed.
func (t *Table) slotOf(id classifier.RuleID) int {
	m, ok := t.meta[id]
	if !ok {
		return -1
	}
	lo, hi := 0, len(t.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		e := t.entries[mid]
		if e.Priority > m.priority || (e.Priority == m.priority && t.ranks[mid] < m.rank) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(t.entries); i++ {
		if t.entries[i].ID == id {
			return i
		}
		if t.entries[i].Priority != m.priority || t.ranks[i] != m.rank {
			break
		}
	}
	return -1
}

// InsertCost returns the latency an insertion of the given priority would
// incur right now, without performing it.
func (t *Table) InsertCost(priority int32) time.Duration {
	_, shifts := t.InsertPosition(priority)
	return t.profile.InsertLatency(shifts)
}

// Insert installs a rule, returning the modeled latency. Inserting the
// lowest-priority rule appends without shifting and costs only the floor
// latency — the fast path Hermes's §4.2 optimization exploits. Priority
// ties place the new rule below existing equals (earlier wins).
func (t *Table) Insert(r classifier.Rule) (time.Duration, error) {
	rank := t.nextRank
	t.nextRank++
	return t.InsertRanked(r, rank)
}

// InsertRanked installs a rule at an explicit tie rank: among equal
// priorities, lower ranks sit higher. Hermes uses its logical insertion
// sequence as the rank so that rules migrated into the main table recover
// their original tie order relative to rules already there.
func (t *Table) InsertRanked(r classifier.Rule, rank uint64) (time.Duration, error) {
	if len(t.entries) >= t.capacity {
		return 0, fmt.Errorf("%w: %s at %d entries", ErrTableFull, t.name, t.capacity)
	}
	if _, dup := t.meta[r.ID]; dup {
		return 0, fmt.Errorf("%w: %d in %s", ErrDuplicateID, r.ID, t.name)
	}
	if rank >= t.nextRank {
		t.nextRank = rank + 1
	}
	pos, shifts := t.insertPositionRanked(r.Priority, rank)
	f := t.faultFor(OpInsert, r.ID)
	if f.Drop {
		// Lost update: the hardware acks but the entry never lands.
		t.droppedOps++
		return t.profile.InsertLatency(shifts) + f.Extra, nil
	}
	t.entries = append(t.entries, classifier.Rule{})
	copy(t.entries[pos+1:], t.entries[pos:])
	t.entries[pos] = r
	t.ranks = append(t.ranks, 0)
	copy(t.ranks[pos+1:], t.ranks[pos:])
	t.ranks[pos] = rank
	t.meta[r.ID] = entryMeta{priority: r.Priority, rank: rank}
	t.indexInsert(r, rank)
	t.totalShifts += shifts
	t.totalInserts++
	if t.shiftHist != nil {
		t.shiftHist.Record(uint64(shifts))
	}
	t.gen.Add(1)
	return t.profile.InsertLatency(shifts) + f.Extra, nil
}

// Delete removes a rule by ID, returning the (constant) latency and whether
// the rule was present. Deletion never shifts entries: real TCAMs simply
// invalidate the slot (§2.1, "deletion is a simple and fast operation").
func (t *Table) Delete(id classifier.RuleID) (time.Duration, bool) {
	i := t.slotOf(id)
	if i < 0 {
		return 0, false
	}
	f := t.faultFor(OpDelete, id)
	if f.Drop {
		// Lost delete: the entry stays installed despite the ack.
		t.droppedOps++
		return t.profile.DeleteLatency + f.Extra, true
	}
	t.index.Delete(t.entries[i].Match.Dst, id)
	t.entries = append(t.entries[:i], t.entries[i+1:]...)
	t.ranks = append(t.ranks[:i], t.ranks[i+1:]...)
	delete(t.meta, id)
	t.totalDeletes++
	t.gen.Add(1)
	return t.profile.DeleteLatency + f.Extra, true
}

// ModifyAction rewrites a rule's action in place — constant time, no
// reordering (§2.1, "modifications, surprisingly, can be constant").
func (t *Table) ModifyAction(id classifier.RuleID, a classifier.Action) (time.Duration, bool) {
	i := t.slotOf(id)
	if i < 0 {
		return 0, false
	}
	f := t.faultFor(OpModify, id)
	if f.Drop {
		t.droppedOps++
		return t.profile.ModifyLatency + f.Extra, true
	}
	t.entries[i].Action = a
	t.index.Update(t.entries[i].Match.Dst, t.entries[i])
	t.totalMods++
	t.gen.Add(1)
	return t.profile.ModifyLatency + f.Extra, true
}

// ModifyPriority moves a rule to a new priority, keeping its tie rank. The
// hardware cost is the shift distance between the old and new slots, as if
// the update engine slid the intervening entries by one. The repositioned
// entry lands below existing (priority, rank) equals, like a fresh insert.
func (t *Table) ModifyPriority(id classifier.RuleID, priority int32) (time.Duration, bool) {
	i := t.slotOf(id)
	if i < 0 {
		return 0, false
	}
	f := t.faultFor(OpModify, id)
	if f.Drop {
		t.droppedOps++
		return t.profile.ModifyLatency + f.Extra, true
	}
	r := t.entries[i]
	m := t.meta[id]
	r.Priority = priority
	// Remove, then re-place by the new key.
	t.entries = append(t.entries[:i], t.entries[i+1:]...)
	t.ranks = append(t.ranks[:i], t.ranks[i+1:]...)
	pos, _ := t.insertPositionRanked(priority, m.rank)
	t.entries = append(t.entries, classifier.Rule{})
	copy(t.entries[pos+1:], t.entries[pos:])
	t.entries[pos] = r
	t.ranks = append(t.ranks, 0)
	copy(t.ranks[pos+1:], t.ranks[pos:])
	t.ranks[pos] = m.rank
	t.meta[id] = entryMeta{priority: priority, rank: m.rank}
	// Re-stamped like a fresh insert: it now sits below its new equals.
	t.index.Delete(r.Match.Dst, id)
	t.indexInsert(r, m.rank)
	shifts := pos - i
	if shifts < 0 {
		shifts = -shifts
	}
	t.totalShifts += shifts
	t.totalMods++
	if t.shiftHist != nil {
		t.shiftHist.Record(uint64(shifts))
	}
	t.gen.Add(1)
	return t.profile.InsertLatency(shifts) + f.Extra, true
}

// Get returns the installed rule with the given ID — an indexed slot
// recovery, not a scan.
func (t *Table) Get(id classifier.RuleID) (classifier.Rule, bool) {
	i := t.slotOf(id)
	if i < 0 {
		return classifier.Rule{}, false
	}
	return t.entries[i], true
}

// indexInsert adds r to the match index with the next arrival stamp.
func (t *Table) indexInsert(r classifier.Rule, rank uint64) {
	t.index.InsertKeyed(r, classifier.Key{Rank: rank, Ord: t.nextOrd})
	t.nextOrd++
}

// Lookup returns the first (highest-priority, earliest-inserted) rule
// matching the packet, mirroring hardware first-match semantics. The
// default path is the match index's first-match walk over the ≤33 trie
// nodes on the packet's destination path; SetLinearLookup(true) selects the
// full-scan oracle instead. Both return bit-for-bit the same rule.
func (t *Table) Lookup(dst, src uint32) (classifier.Rule, bool) {
	if t.linear {
		return t.LookupLinear(dst, src)
	}
	return t.index.Lookup(dst, src)
}

// LookupLinear is the scan-every-entry reference lookup, kept as the
// differential-testing oracle for the indexed path.
func (t *Table) LookupLinear(dst, src uint32) (classifier.Rule, bool) {
	for _, e := range t.entries {
		if e.Match.MatchesPacket(dst, src) {
			return e, true
		}
	}
	return classifier.Rule{}, false
}

// Snapshot freezes the match index: the returned snapshot keeps answering
// Lookup for the table's current contents, lock-free, whatever happens to
// the table afterwards. O(1); the table's next mutations copy the index
// nodes they touch. Like every mutator it needs exclusive access.
func (t *Table) Snapshot() classifier.Snapshot { return t.index.Freeze() }

// OverlapCandidates walks the installed entries whose match regions overlap
// m, in OverlapIter order: the Gate Keeper cuts a new shadow rule against
// what the table physically holds. The walk copies no index node.
func (t *Table) OverlapCandidates(m classifier.Match) classifier.OverlapIter {
	return t.index.OverlapCandidates(m)
}

// Reset empties the table. Used by the Rule Manager's "empty shadow table"
// migration step; bulk invalidation is a cheap constant-time TCAM
// operation per entry. The bookkeeping map is cleared in place rather than
// reallocated — migration-heavy runs reset tables constantly.
func (t *Table) Reset() time.Duration {
	n := len(t.entries)
	t.clearState()
	return time.Duration(n) * t.profile.DeleteLatency
}

// Wipe models a switch crash/power-cycle: every entry vanishes instantly,
// with no modeled latency and no operation counters (the control plane
// never issued these deletions — the hardware simply lost its state).
func (t *Table) Wipe() {
	t.clearState()
}

func (t *Table) clearState() {
	t.entries = t.entries[:0]
	t.ranks = t.ranks[:0]
	clear(t.meta)
	t.index.Clear()
	t.gen.Add(1)
}

// Truncate models a crash mid-bulk-write: only the first n entries (in
// TCAM order) survive; the tail vanishes as in Wipe. A negative or
// oversized n is a no-op.
func (t *Table) Truncate(n int) {
	if n < 0 || n >= len(t.entries) {
		return
	}
	for _, e := range t.entries[n:] {
		delete(t.meta, e.ID)
		t.index.Delete(e.Match.Dst, e.ID)
	}
	t.entries = t.entries[:n]
	t.ranks = t.ranks[:n]
	t.gen.Add(1)
}

// Stats reports cumulative operation counters.
func (t *Table) Stats() TableStats {
	return TableStats{
		Inserts: t.totalInserts,
		Deletes: t.totalDeletes,
		Mods:    t.totalMods,
		Shifts:  t.totalShifts,
	}
}

// TableStats are cumulative per-table operation counters.
type TableStats struct {
	Inserts, Deletes, Mods, Shifts int
}
