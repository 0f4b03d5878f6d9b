package rulecache

import (
	"math/bits"
	"sync/atomic"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/obs"
)

// RuleStats is the per-rule popularity record: a sampled hit count plus the
// epoch of the most recent sampled hit. FoldSamples is its only writer and
// the rebalance pass its reader, both under the agent's lock.
type RuleStats struct {
	id              classifier.RuleID
	hits, lastEpoch uint64
	marked          uint64 // the rank generation that last listed it as touched
}

// ID returns the rule the record belongs to.
func (s *RuleStats) ID() classifier.RuleID { return s.id }

// Hits returns the recorded hit count (sampled: multiply by the config's
// SampleStride for an unbiased estimate of true hits; rankings don't care).
func (s *RuleStats) Hits() uint64 { return s.hits }

// LastEpoch returns the epoch of the most recent hit (0 = never hit).
func (s *RuleStats) LastEpoch() uint64 { return s.lastEpoch }

// Manager owns the cache-policy state: per-rule stats, the recency epoch,
// and the hierarchy's aggregate counters. The stats map is mutated only
// under the agent's lock; the counters are lock-free and fed from the
// snapshot read path.
//
// The hardware-tier fast path is write-free off sample points: whether a
// lookup updates any shared state at all is decided by a pure hash of the
// packet header mixed with the recency epoch (samplePoint), so the common
// case pays a few ALU ops and one read-mostly atomic load — no atomic
// read-modify-write. The sampled-flow subset rotates every epoch (the agent
// advances the epoch each tick), so no flow is permanently invisible to the
// popularity stats; over many ticks every flow is observed in an expected
// 1-in-SampleStride fraction of its hits.
//
// Sample points of both tiers are kept off the stats map: a sampled hit
// pushes the winning entry's ID into one fixed lock-free ring (one
// fetch-add plus one store), and the agent folds the ring into the per-rule
// stats under its lock once per tick (FoldSamples), the only writer of
// those stats. The stats map walk — the expensive, cache-hostile part —
// thus runs a few hundred times per tick instead of once per lookup. The
// software tier and the miss path already pay a full second lookup, so
// their aggregate counters stay exact.
type Manager struct {
	cfg   Config
	epoch atomic.Uint64
	stats map[classifier.RuleID]*RuleStats

	// sampleMask = SampleStride−1; sampleShift = log₂ SampleStride, used to
	// scale sampled counts back into estimates.
	sampleMask  uint64
	sampleShift uint

	// ring buffers both tiers' sampled hits (physical entry IDs, flagged
	// softSample in the software tier) between folds; ringHead counts the
	// samples ever pushed (sample i is in slot i mod ring size), softSampled
	// the software-tier ones. ringFolded is the prefix already folded; agent
	// lock. Writers race folds benignly: a late store is read stale or as
	// zero and that one sample is misattributed or dropped.
	ring        [sampleRingSize]atomic.Uint64
	ringHead    atomic.Uint64
	softSampled atomic.Uint64
	ringFolded  uint64

	// touched lists the records touched since the last rank; a record is
	// listed iff its marked equals rankGen. Agent lock.
	touched []*RuleStats
	rankGen uint64

	// softHits and misses are exact; hwHits estimates the hw-tier hits.
	softHits, misses             obs.Counter
	promotions, demotions        obs.Counter
	coverInstalls, coverRemovals obs.Counter
	// scored counts the rules rebalance passes scored, challengers the
	// software-only ones among them that beat the worst resident, and
	// hygieneVisits the rules the cover-hygiene pass re-examined. Together
	// they say whether a tick did O(changed) work.
	scored, challengers, hygieneVisits obs.Counter
	setupLat                           *obs.Histogram
}

// sampleRingSize is the sample ring length: 4096 slots cover SampleStride ×
// 4096 lookups between folds before the oldest samples are overwritten
// (lossy by design — they are samples).
const sampleRingSize = 1 << 12

// softSample flags a software-tier sample in its ring slot (FoldSamples).
const softSample = 1 << 63

// NewManager builds a manager for the given cache config (defaults
// applied): one per cached agent, beside its software tier.
func NewManager(cfg Config) *Manager {
	cfg = cfg.WithDefaults()
	return &Manager{
		cfg:         cfg,
		stats:       make(map[classifier.RuleID]*RuleStats),
		sampleMask:  uint64(cfg.SampleStride - 1),
		sampleShift: uint(bits.TrailingZeros64(uint64(cfg.SampleStride))),
		rankGen:     1,
		setupLat:    obs.NewHistogram(),
	}
}

// EpochNow returns the current recency epoch.
func (m *Manager) EpochNow() uint64 { return m.epoch.Load() }

// AdvanceEpoch starts a new recency epoch (called once per agent tick) and
// returns the new value.
func (m *Manager) AdvanceEpoch() uint64 { return m.epoch.Add(1) }

// Ensure returns the rule's stats record, creating it on first sight; a
// new record is touched. Caller must hold the agent's exclusive lock.
func (m *Manager) Ensure(id classifier.RuleID) *RuleStats {
	if s, ok := m.stats[id]; ok {
		return s
	}
	s := &RuleStats{id: id}
	m.stats[id] = s
	m.touch(s)
	return s
}

// Forget drops the rule's stats record. Caller must hold the agent's
// exclusive lock.
func (m *Manager) Forget(id classifier.RuleID) { delete(m.stats, id) }

// Stats returns the rule's stats record, or nil if untracked. Safe under
// the agent's read lock.
func (m *Manager) Stats(id classifier.RuleID) *RuleStats { return m.stats[id] }

// Touch lists the rule for the next rank, as a fold crediting it would:
// for a score that may have moved without a hit. Agent lock.
func (m *Manager) Touch(id classifier.RuleID) {
	if s := m.stats[id]; s != nil {
		m.touch(s)
	}
}

//hermes:coldpath the touched list is reused; it grows only with the rule count
func (m *Manager) touch(s *RuleStats) {
	if s.marked != m.rankGen {
		s.marked = m.rankGen
		m.touched = append(m.touched, s)
	}
}

// TakeTouched returns the records touched since the last call, once each,
// and starts the next list; the slice lives until the next touch. A record
// may since have been forgotten or replaced: the caller checks. Agent lock.
func (m *Manager) TakeTouched() []*RuleStats {
	t := m.touched
	m.touched = m.touched[:0]
	m.rankGen++
	return t
}

// samplePoint decides, from the packet header and the current recency
// epoch alone, whether this lookup is a popularity sample point. The hash
// (a splitmix64-style finalizer) is a pure function, so sampling is fully
// deterministic and replayable; mixing in the epoch rotates the sampled
// flow-subset every agent tick. Zero-alloc, hot path.
//
//hermes:hotpath
func (m *Manager) samplePoint(dst, src uint32) bool {
	if m.sampleMask == 0 {
		return true
	}
	h := (uint64(dst)<<32 | uint64(src)) + m.epoch.Load()*0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h&m.sampleMask == 0
}

// SampleHW handles a hardware-tier hit: off sample points it touches no
// shared state at all (the common case — a few ALU ops and one read-mostly
// atomic load); on sample points it pushes the matched entry's ID into the
// sample ring for the next FoldSamples pass. Zero-alloc, hot path.
//
//hermes:hotpath
func (m *Manager) SampleHW(dst, src uint32, id classifier.RuleID) {
	if m.samplePoint(dst, src) {
		m.ring[(m.ringHead.Add(1)-1)%sampleRingSize].Store(uint64(id))
	}
}

// SampleSoft counts a software-tier hit — the packet missed the TCAM (or
// hit a cover) and was resolved by the software table, paying both tiers'
// latencies — and on sample points, chosen as for the hardware tier so the
// two tiers' stats stay comparable, pushes the winning rule's ID into the
// same ring. The aggregate count is exact: this path already paid for a
// full software lookup. Zero-alloc.
//
//hermes:hotpath
func (m *Manager) SampleSoft(dst, src uint32, id classifier.RuleID) {
	m.softHits.Inc()
	if m.samplePoint(dst, src) {
		m.ring[(m.ringHead.Add(1)-1)%sampleRingSize].Store(uint64(id) | softSample)
		m.softSampled.Add(1)
	}
}

// FoldSamples drains the sample ring into the per-rule stats and touches
// every record it credits: a hardware-tier sample in the given epoch, the
// one the tick opens, a software-tier one in the epoch before, which it was
// taken in. A last epoch never goes down (the tiers interleave in the
// ring). originalOf maps physical entry IDs (which may be partition fragments) to
// their original rule; nil means identity. IDs without a stats record
// (rule deleted since the sample) and zero slots (never written) are
// skipped. Caller must hold the agent's exclusive lock.
//
//hermes:hotpath
func (m *Manager) FoldSamples(epoch uint64, originalOf func(classifier.RuleID) classifier.RuleID) {
	head := m.ringHead.Load()
	start := m.ringFolded
	if head-start > sampleRingSize {
		start = head - sampleRingSize // older samples were overwritten
	}
	for i := start; i < head; i++ {
		v := m.ring[i%sampleRingSize].Load()
		if v == 0 {
			continue
		}
		id, at := classifier.RuleID(v&^softSample), epoch
		if v&softSample != 0 {
			at = epoch - 1
		} else if originalOf != nil {
			id = originalOf(id)
		}
		if s := m.stats[id]; s != nil {
			s.hits++
			s.lastEpoch = max(s.lastEpoch, at)
			m.touch(s)
		}
	}
	m.ringFolded = head
}

// RecordMiss counts a lookup no rule matched; it still walked both tiers.
// Exact. Zero-alloc.
//
//hermes:hotpath
func (m *Manager) RecordMiss() { m.misses.Inc() }

// RecordSetup records one rule-setup (insert) virtual latency.
func (m *Manager) RecordSetup(d time.Duration) { m.setupLat.RecordDuration(d) }

// NotePromotion / NoteDemotion / NoteCoverInstall / NoteCoverRemoval count
// tier moves and cover-rule churn, one each, driven by the agent under its
// lock.
func (m *Manager) NotePromotion()    { m.promotions.Inc() }
func (m *Manager) NoteDemotion()     { m.demotions.Inc() }
func (m *Manager) NoteCoverInstall() { m.coverInstalls.Inc() }
func (m *Manager) NoteCoverRemoval() { m.coverRemovals.Inc() }

// NoteScored / NoteChallengers / NoteHygieneVisits count the work one
// rebalance pass did: rules scored, software-only rules that beat the worst
// resident, and rules the cover-hygiene pass re-examined.
func (m *Manager) NoteScored(n int)        { m.scored.Add(uint64(n)) }
func (m *Manager) NoteChallengers(n int)   { m.challengers.Add(uint64(n)) }
func (m *Manager) NoteHygieneVisits(n int) { m.hygieneVisits.Add(uint64(n)) }

// Score ranks a rule for residency under the configured policy: higher
// scores deserve hardware slots. Ties are broken by the caller (rule ID)
// so rankings are deterministic.
func (m *Manager) Score(s *RuleStats) float64 {
	if s == nil {
		return 0
	}
	if m.cfg.Policy == PolicyLRU {
		return float64(s.LastEpoch())
	}
	return float64(s.Hits()) // PolicyLFU
}

// Snapshot is a point-in-time copy of the hierarchy's aggregate metrics.
// HWHits is a sampled estimate (sampled count × SampleStride, exact at
// stride 1); SoftHits and Misses are exact.
type Snapshot struct {
	HWHits, SoftHits, Misses     uint64
	Promotions, Demotions        uint64
	CoverInstalls, CoverRemovals uint64
	// RebalanceScored, RebalanceChallengers and HygieneVisits count the
	// rules rebalance passes scored, ranked against the residents and
	// re-examined for cover hygiene; a tick that changed nothing adds only
	// the residents to the first.
	RebalanceScored, RebalanceChallengers, HygieneVisits uint64
	Epoch                                                uint64
	Tracked                                              int

	SetupP50, SetupP99 time.Duration
}

// Lookups is the total number of lookups the hierarchy served.
func (s Snapshot) Lookups() uint64 { return s.HWHits + s.SoftHits + s.Misses }

// HitRatio is the fraction of lookups answered entirely by the hardware
// tier.
func (s Snapshot) HitRatio() float64 {
	total := s.Lookups()
	if total == 0 {
		return 0
	}
	return float64(s.HWHits) / float64(total)
}

// Snapshot returns the current aggregate metrics.
func (m *Manager) Snapshot() Snapshot {
	return Snapshot{
		HWHits:               m.hwHits(),
		SoftHits:             m.softHits.Value(),
		Misses:               m.misses.Value(),
		Promotions:           m.promotions.Value(),
		Demotions:            m.demotions.Value(),
		CoverInstalls:        m.coverInstalls.Value(),
		CoverRemovals:        m.coverRemovals.Value(),
		RebalanceScored:      m.scored.Value(),
		RebalanceChallengers: m.challengers.Value(),
		HygieneVisits:        m.hygieneVisits.Value(),
		Epoch:                m.epoch.Load(),
		Tracked:              len(m.stats),
		SetupP50:             m.setupLat.QuantileDuration(0.50),
		SetupP99:             m.setupLat.QuantileDuration(0.99),
	}
}

// hwHits is the sampled hw-hit estimate. softSampled is read first, as it
// is raised after ringHead, so the difference never goes negative.
func (m *Manager) hwHits() uint64 {
	soft := m.softSampled.Load()
	return (m.ringHead.Load() - soft) << m.sampleShift
}

// Register exposes the hierarchy's metrics on an obs registry under the
// hermes_cache_* namespace, /metrics-ready.
func (m *Manager) Register(reg *obs.Registry) {
	reg.CounterFunc("hermes_cache_hw_hits_total", "", "lookups answered by the hardware (TCAM) tier (sampled estimate)", m.hwHits)
	reg.CounterFunc("hermes_cache_soft_hits_total", "", "lookups resolved by the software tier", m.softHits.Value)
	reg.CounterFunc("hermes_cache_misses_total", "", "lookups no rule matched", m.misses.Value)
	reg.CounterFunc("hermes_cache_promotions_total", "", "rules promoted into the hardware tier", m.promotions.Value)
	reg.CounterFunc("hermes_cache_demotions_total", "", "rules demoted to the software tier", m.demotions.Value)
	reg.CounterFunc("hermes_cache_cover_installs_total", "", "cover rules installed for dependency-safe eviction", m.coverInstalls.Value)
	reg.CounterFunc("hermes_cache_cover_removals_total", "", "cover rules removed", m.coverRemovals.Value)
	reg.CounterFunc("hermes_cache_rebalance_scored_total", "", "rules scored by rebalance passes: the residents plus the software-only rules whose score may have moved", m.scored.Value)
	reg.CounterFunc("hermes_cache_rebalance_challengers_total", "", "software-only rules ranked against the residents by rebalance passes", m.challengers.Value)
	reg.CounterFunc("hermes_cache_hygiene_visits_total", "", "rules re-examined by rebalance cover-hygiene passes", m.hygieneVisits.Value)
	reg.GaugeFunc("hermes_cache_hit_ratio", "", "fraction of lookups answered by the hardware tier", func() float64 {
		return m.Snapshot().HitRatio()
	})
	reg.RegisterHistogram("hermes_cache_setup_latency_ns", "", "ns", "virtual rule-setup latency through the cached path", m.setupLat)
}
