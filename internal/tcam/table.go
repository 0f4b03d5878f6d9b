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
	// OpModify covers ModifyAction.
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
// physically placed by, from which slotOf recovers its (block, index) with
// two binary searches instead of a table scan, and the rule's index handle.
type entryMeta struct {
	priority int32
	// rank breaks priority ties: lower rank sits higher (see slot.rank).
	rank uint64
	h    classifier.Handle
}

// blockCap bounds a block's length, and with it what one write moves: a
// write is charged its shift count but moves the slots of one block.
const blockCap = 128

// slot is one physical entry: its ID and the sort key it is placed by.
type slot struct {
	id       classifier.RuleID
	priority int32
	// rank breaks priority ties: lower rank sits higher, mirroring the
	// earlier-inserted-wins order of a monolithic TCAM. Plain Insert
	// auto-assigns increasing ranks; the Hermes agent passes its logical
	// sequence numbers so migrated rules regain their original standing.
	rank uint64
}

// precedes reports whether s sorts above a (priority, rank) key. With below
// set the key goes below its (priority, rank) equals, as an insert does;
// otherwise it goes above them, at the start of the equals' run.
func (s *slot) precedes(priority int32, rank uint64, below bool) bool {
	p := s.priority
	return p > priority || p == priority && (s.rank < rank || below && s.rank == rank)
}

// doomed is an entry a bulk removal took out of meta, not yet unindexed.
type doomed struct {
	id classifier.RuleID
	h  classifier.Handle
}

// Table is one TCAM slice: a priority-ordered entry list with the shift-cost
// insertion behaviour of real TCAMs. Entries are kept in descending priority
// order; among equal priorities the earlier-inserted rule sits higher, which
// yields first-match semantics identical to hardware.
//
// Every mutating operation returns the modeled hardware latency so callers
// (the Hermes agent, the simulator) can account for control-plane time. The
// latency is charged from the shift count — the entries below the write
// point — which the table counts rather than performs: the entries live in
// blocks of at most blockCap slots whose concatenation is TCAM order, so an
// insert or delete moves the slots of one block and a position is the
// lengths of the blocks before it plus an in-block index.
//
// A rule has one copy, in the match index: a destination-prefix trie, each
// entry keyed by its placement, so Lookup only visits the entries whose Dst
// can match the packet and Snapshot hands the same index to lock-free
// readers. meta maps an ID to its sort key, which Delete finds a slot
// by, and its index handle, which Get and ModifyAction reach the
// rule by. SetLinearLookup(true) reverts Lookup to the full scan — kept as
// the differential-testing oracle, never as the production path.
type Table struct {
	name     string
	capacity int
	profile  *Profile
	// blocks hold the n entries in TCAM order. No block is empty, none
	// holds more than blockCap, and any two neighbours together hold more
	// than blockCap/2, so there are at most 4n/blockCap + 1 of them. spare
	// keeps the blocks emptied since, so steady-state writes allocate
	// nothing.
	blocks   [][]slot
	spare    [][]slot
	n        int
	nextRank uint64

	// meta maps installed rule IDs to their placement key and index handle.
	meta   map[classifier.RuleID]entryMeta
	doomed []doomed // reused by DeleteAll and Truncate
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
	// ranked insert (the obs wiring; recording is
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
	t := &Table{
		name:     name,
		capacity: capacity,
		profile:  profile,
		meta:     make(map[classifier.RuleID]entryMeta),
	}
	t.index.OnMove(func(id classifier.RuleID, h classifier.Handle) {
		if m, ok := t.meta[id]; ok {
			m.h = h
			t.meta[id] = m
		}
	})
	return t
}

// rule reads a slot's rule through its handle, in t.doomed for a doomed one.
func (t *Table) rule(id classifier.RuleID) classifier.Rule {
	m, ok := t.meta[id]
	for i := 0; !ok && i < len(t.doomed); i++ {
		m.h, ok = t.doomed[i].h, t.doomed[i].id == id
	}
	r, _ := t.index.GetAt(m.h, id)
	return r
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Capacity returns the number of entries the slice can hold.
func (t *Table) Capacity() int { return t.capacity }

// Occupancy returns the number of installed entries.
func (t *Table) Occupancy() int { return t.n }

// Free returns the remaining entry slots.
func (t *Table) Free() int { return t.capacity - t.n }

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
	if t.n == 0 {
		return nil
	}
	out := make([]classifier.Rule, 0, t.n)
	for _, b := range t.blocks {
		for i := range b {
			out = append(out, t.rule(b[i].id))
		}
	}
	return out
}

// InsertPosition returns the index at which a rule with the given priority
// would be placed by a plain Insert (below all equal priorities), and the
// number of entries that insertion would shift.
func (t *Table) InsertPosition(priority int32) (pos, shifts int) {
	pos = t.posOf(t.find(priority, ^uint64(0), true))
	return pos, t.n - pos
}

// LowestPriority returns the priority of the table's last entry, the lowest
// installed, with ok=false when the table is empty. A plain Insert at
// priority p shifts nothing exactly when the table is empty or this is ≥ p.
func (t *Table) LowestPriority() (priority int32, ok bool) {
	if t.n == 0 {
		return 0, false
	}
	b := t.blocks[len(t.blocks)-1]
	return b[len(b)-1].priority, true
}

// find returns where a (priority, rank) key places (see slot.precedes):
// block bi and index j in it of the first slot that does not precede the
// key. bi == len(blocks) means past every entry. Among equal (priority, rank) an
// insert lands below existing ones — the invariant the index's ord stamps
// depend on.
func (t *Table) find(priority int32, rank uint64, below bool) (bi, j int) {
	lo, hi := 0, len(t.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		b := t.blocks[mid]
		if b[len(b)-1].precedes(priority, rank, below) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(t.blocks) {
		return lo, 0
	}
	// The block's last slot does not precede the key, so j stays inside it.
	b := t.blocks[lo]
	l, h := 0, len(b)-1
	for l < h {
		mid := int(uint(l+h) >> 1)
		if b[mid].precedes(priority, rank, below) {
			l = mid + 1
		} else {
			h = mid
		}
	}
	return lo, l
}

// posOf converts (block, index) to the TCAM position: the lengths of the
// blocks before it plus the index.
func (t *Table) posOf(bi, j int) int {
	for _, b := range t.blocks[:bi] {
		j += len(b)
	}
	return j
}

// slotOf locates an installed rule's slot: binary-search to the start of
// its (priority, rank) group, then walk the (almost always tiny) group,
// across a block boundary if it straddles one. It returns the rule's meta
// entry too, so a caller reads the map once. Returns bi = -1 if the ID is
// not installed.
func (t *Table) slotOf(id classifier.RuleID) (m entryMeta, bi, j int) {
	m, ok := t.meta[id]
	if !ok {
		return m, -1, 0
	}
	for bi, j = t.find(m.priority, m.rank, false); bi < len(t.blocks); bi, j = bi+1, 0 {
		b := t.blocks[bi]
		for ; j < len(b); j++ {
			if b[j].id == id {
				return m, bi, j
			}
			if b[j].priority != m.priority || b[j].rank != m.rank {
				return m, -1, 0
			}
		}
	}
	return m, -1, 0
}

// insertAt places s at index j of block bi (as find returned them),
// splitting a full block in half first.
func (t *Table) insertAt(bi, j int, s slot) {
	if bi == len(t.blocks) {
		if bi == 0 {
			t.blocks = append(t.blocks, t.newBlock())
		} else {
			bi--
			j = len(t.blocks[bi])
		}
	}
	b := t.blocks[bi]
	if len(b) == cap(b) {
		half := len(b) / 2
		nb := append(t.newBlock(), b[half:]...)
		b = b[:half]
		t.blocks[bi] = b
		t.blocks = append(t.blocks, nil)
		copy(t.blocks[bi+2:], t.blocks[bi+1:])
		t.blocks[bi+1] = nb
		if j > half {
			bi, j, b = bi+1, j-half, nb
		}
	}
	b = b[:len(b)+1]
	copy(b[j+1:], b[j:])
	b[j] = s
	t.blocks[bi] = b
	t.n++
}

// removeAt deletes index j of block bi and restores the block invariant.
func (t *Table) removeAt(bi, j int) {
	b := t.blocks[bi]
	copy(b[j:], b[j+1:])
	t.blocks[bi] = b[:len(b)-1]
	t.n--
	t.shrunk(bi)
}

// shrunk restores the block invariant after block bi lost entries: an
// empty block is dropped, and one that fits in half a block together with
// a neighbour is merged into it.
func (t *Table) shrunk(bi int) {
	b := t.blocks[bi]
	switch {
	case len(b) == 0:
		t.dropBlock(bi)
	case bi > 0 && len(t.blocks[bi-1])+len(b) <= blockCap/2:
		t.blocks[bi-1] = append(t.blocks[bi-1], b...)
		t.dropBlock(bi)
	case bi+1 < len(t.blocks) && len(b)+len(t.blocks[bi+1]) <= blockCap/2:
		t.blocks[bi] = append(b, t.blocks[bi+1]...)
		t.dropBlock(bi + 1)
	}
}

// newBlock returns an empty block, from the spare list when it has one.
// A table smaller than one block gets a block of its own capacity.
func (t *Table) newBlock() []slot {
	if k := len(t.spare); k > 0 {
		b := t.spare[k-1]
		t.spare = t.spare[:k-1]
		return b
	}
	return make([]slot, 0, min(blockCap, t.capacity))
}

// dropBlock unlinks block bi and keeps it as a spare.
func (t *Table) dropBlock(bi int) {
	t.spare = append(t.spare, t.blocks[bi][:0])
	t.blocks = append(t.blocks[:bi], t.blocks[bi+1:]...)
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
	if t.n >= t.capacity {
		return 0, fmt.Errorf("%w: %s at %d entries", ErrTableFull, t.name, t.capacity)
	}
	if _, dup := t.meta[r.ID]; dup {
		return 0, fmt.Errorf("%w: %d in %s", ErrDuplicateID, r.ID, t.name)
	}
	if rank >= t.nextRank {
		t.nextRank = rank + 1
	}
	bi, j := t.find(r.Priority, rank, true)
	shifts := t.n - t.posOf(bi, j)
	f := t.faultFor(OpInsert, r.ID)
	if f.Drop {
		// Lost update: the hardware acks but the entry never lands.
		t.droppedOps++
		return t.profile.InsertLatency(shifts) + f.Extra, nil
	}
	t.insertAt(bi, j, slot{id: r.ID, priority: r.Priority, rank: rank})
	t.meta[r.ID] = entryMeta{priority: r.Priority, rank: rank, h: t.indexInsert(r, rank)}
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
	m, bi, j := t.slotOf(id)
	if bi < 0 {
		return 0, false
	}
	f := t.faultFor(OpDelete, id)
	if f.Drop {
		// Lost delete: the entry stays installed despite the ack.
		t.droppedOps++
		return t.profile.DeleteLatency + f.Extra, true
	}
	delete(t.meta, id)
	t.index.DeleteAt(m.h, m.h.Dst(), id)
	t.removeAt(bi, j)
	t.totalDeletes++
	t.gen.Add(1)
	return t.profile.DeleteLatency + f.Extra, true
}

// DeleteAll removes the listed rules, returning the summed latency and how
// many listed IDs were present: what the same sequence of Delete calls would
// return, with the same fault-hook calls in the same order (once per listed
// ID present when its turn comes; a dropped delete keeps its entry, so a
// repeat of its ID consults the hook again) and the same counters. The
// entries then leave in one pass over the blocks — or, when none survives,
// the way Reset empties the table. Survivors keep their order and index keys.
// This is the Rule Manager's step-4 bulk invalidation. The index keeps the
// entries until after the last hook call, as the blocks do.
func (t *Table) DeleteAll(ids []classifier.RuleID) (total time.Duration, n int) {
	t.doomed = t.doomed[:0]
	for _, id := range ids {
		m, ok := t.meta[id]
		if !ok {
			continue
		}
		n++
		f := t.faultFor(OpDelete, id)
		total += t.profile.DeleteLatency + f.Extra
		if f.Drop {
			t.droppedOps++
			continue
		}
		delete(t.meta, id)
		t.doomed = append(t.doomed, doomed{id, m.h})
	}
	if len(t.doomed) == 0 {
		return total, n
	}
	t.totalDeletes += len(t.doomed)
	if len(t.doomed) == t.n {
		t.clearState()
		return total, n
	}
	t.removeUnlisted()
	t.gen.Add(1)
	return total, n
}

// removeUnlisted unindexes the doomed entries (a handle an earlier delete
// left stale names a node the trie does not own, so its delete walks), then
// takes out the slots whose rule meta no longer lists and restores the
// block invariant in the same pass: a block that fits in half a block
// together with the one kept before it is merged into it, and an emptied
// one goes to the spare list.
func (t *Table) removeUnlisted() {
	for _, d := range t.doomed {
		t.index.DeleteAt(d.h, d.h.Dst(), d.id)
	}
	clear(t.doomed) // keeps no old node alive
	kept := t.blocks[:0]
	for _, b := range t.blocks {
		w := 0
		for j := range b {
			if _, ok := t.meta[b[j].id]; !ok {
				continue
			}
			b[w] = b[j]
			w++
		}
		t.n -= len(b) - w
		b = b[:w]
		if k := len(kept); w == 0 || k > 0 && len(kept[k-1])+w <= blockCap/2 {
			if w > 0 {
				kept[k-1] = append(kept[k-1], b...)
			}
			t.spare = append(t.spare, b[:0])
			continue
		}
		kept = append(kept, b)
	}
	clear(t.blocks[len(kept):])
	t.blocks = kept
}

// ModifyAction rewrites a rule's action in place — constant time, no
// reordering (§2.1, "modifications, surprisingly, can be constant"): one map
// probe, and the rule read and rewritten at its handle.
func (t *Table) ModifyAction(id classifier.RuleID, a classifier.Action) (time.Duration, bool) {
	m, ok := t.meta[id]
	if !ok {
		return 0, false
	}
	f := t.faultFor(OpModify, id)
	if f.Drop {
		t.droppedOps++
		return t.profile.ModifyLatency + f.Extra, true
	}
	r, _ := t.index.GetAt(m.h, id)
	r.Action = a
	t.index.UpdateAt(m.h, r.Match.Dst, r)
	t.totalMods++
	t.gen.Add(1)
	return t.profile.ModifyLatency + f.Extra, true
}

// Get returns the installed rule with the given ID: one map probe and one
// read of the index node its handle names.
func (t *Table) Get(id classifier.RuleID) (classifier.Rule, bool) {
	m, ok := t.meta[id]
	if !ok {
		return classifier.Rule{}, false
	}
	return t.index.GetAt(m.h, id)
}

// indexInsert indexes r with the next arrival stamp and returns its handle.
func (t *Table) indexInsert(r classifier.Rule, rank uint64) classifier.Handle {
	t.nextOrd++
	return t.index.InsertKeyed(r, classifier.Key{Rank: rank, Ord: t.nextOrd - 1})
}

// Lookup returns the first (highest-priority, earliest-inserted) rule
// matching the packet, mirroring hardware first-match semantics. The
// default path is the match index's first-match walk over the trie nodes on
// the packet's destination path; SetLinearLookup(true) selects the
// full-scan oracle instead. Both return bit-for-bit the same rule.
//
//hermes:hotpath
func (t *Table) Lookup(dst, src uint32) (classifier.Rule, bool) {
	if t.linear {
		return t.LookupLinear(dst, src)
	}
	return t.index.Lookup(dst, src)
}

// LookupLinear is the scan-every-entry reference lookup, kept as the
// differential-testing oracle for the indexed path.
func (t *Table) LookupLinear(dst, src uint32) (classifier.Rule, bool) {
	for _, b := range t.blocks {
		for i := range b {
			if r := t.rule(b[i].id); r.Match.MatchesPacket(dst, src) {
				return r, true
			}
		}
	}
	return classifier.Rule{}, false
}

// Snapshot freezes the match index: the returned snapshot keeps answering
// Lookup for the table's current contents, lock-free, whatever happens to
// the table afterwards. O(1); the table's next mutations copy the index
// nodes they touch. Like every mutator it needs exclusive access.
func (t *Table) Snapshot() classifier.Snapshot { return t.index.Freeze() }

// OverlapCandidates walks the installed entries of priority floor and above
// whose match regions overlap m, in OverlapIter order: the Gate Keeper cuts a
// new shadow rule against what the table physically holds. The walk copies
// no index node.
func (t *Table) OverlapCandidates(m classifier.Match, floor int32) classifier.OverlapIter {
	return t.index.OverlapCandidates(m, floor)
}

// Reset empties the table, charging one delete latency per entry: bulk
// invalidation is a cheap constant-time TCAM operation per entry. The
// bookkeeping map is cleared in place, the blocks go to the spare list and
// the index nodes to its freelist rather than being reallocated; a DeleteAll
// that leaves nothing empties the table the same way.
func (t *Table) Reset() time.Duration {
	n := t.n
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
	for _, b := range t.blocks {
		t.spare = append(t.spare, b[:0])
	}
	t.blocks = t.blocks[:0]
	t.n = 0
	clear(t.meta)
	clear(t.doomed)
	t.index.Clear()
	t.gen.Add(1)
}

// Truncate models a crash mid-bulk-write: only the first n entries (in
// TCAM order) survive; the tail vanishes as in Wipe. A negative or
// oversized n is a no-op.
func (t *Table) Truncate(n int) {
	if n < 0 || n >= t.n {
		return
	}
	t.doomed = t.doomed[:0]
	k := 0
	for _, b := range t.blocks {
		for i := range b {
			if id := b[i].id; k >= n {
				t.doomed = append(t.doomed, doomed{id, t.meta[id].h})
				delete(t.meta, id)
			}
			k++
		}
	}
	t.removeUnlisted()
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
