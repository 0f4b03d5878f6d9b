package rulecache

import (
	"math/bits"
	"sync/atomic"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/obs"
)

// RuleStats is the per-rule popularity record: a hit counter plus the epoch
// of the most recent hit. Both fields are updated lock-free from the agent's
// snapshot read path (RecordHit) and read by the Manager's rebalance pass
// under the agent lock. Plain atomics suffice — in cached mode RecordHit is
// only reached on sample points (1 in SampleStride lookups), so write-side
// contention is already strided down.
type RuleStats struct {
	hits      atomic.Uint64
	lastEpoch atomic.Uint64
}

// RecordHit counts one (possibly sampled) packet hit against the rule in
// the given epoch. It is safe for concurrent use and allocates nothing — it
// sits on the lookup fast path.
func (s *RuleStats) RecordHit(epoch uint64) {
	s.hits.Add(1)
	s.lastEpoch.Store(epoch)
}

// Hits returns the recorded hit count (sampled: multiply by the config's
// SampleStride for an unbiased estimate of true hits; rankings don't care).
func (s *RuleStats) Hits() uint64 { return s.hits.Load() }

// LastEpoch returns the epoch of the most recent hit (0 = never hit).
func (s *RuleStats) LastEpoch() uint64 { return s.lastEpoch.Load() }

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
// Sample points themselves are also kept off the stats map: a sampled
// hardware hit pushes its entry ID into a fixed lock-free ring (one
// fetch-add plus one prefetch-friendly store), and the agent folds the ring
// into the per-rule stats map under its lock once per tick (FoldSamples).
// The stats map walk — the expensive, cache-hostile part — thus runs a few
// thousand times per tick instead of once per lookup. The software tier and
// the miss path already pay a full second lookup, so their aggregate
// counters stay exact and their per-rule stats are recorded directly.
type Manager struct {
	cfg   Config
	epoch atomic.Uint64
	stats map[classifier.RuleID]*RuleStats

	// missPenalty is the cost-aware policy's miss-to-hit latency ratio.
	missPenalty float64
	// sampleMask = SampleStride−1; sampleShift = log₂ SampleStride, used to
	// scale sampled counts back into estimates.
	sampleMask  uint64
	sampleShift uint

	// ring buffers sampled hardware-tier hits (physical entry IDs) between
	// folds; ringHead counts sampled hardware hits ever (the slot for
	// sample i is i mod ring size), doubling as the sampled hw-hit counter.
	// ringFolded is the prefix already folded; agent lock. Writers race
	// folds benignly: a late store is read stale or as zero and that one
	// sample is misattributed or dropped — acceptable for sampled stats.
	ring       [sampleRingSize]atomic.Uint64
	ringHead   atomic.Uint64
	ringFolded uint64

	// softHits and misses are exact; the sampled hw-hit count is ringHead.
	softHits, misses             obs.Counter
	promotions, demotions        obs.Counter
	coverInstalls, coverRemovals obs.Counter
	// challengers counts the software-only rules a rebalance had to rank
	// against the residents; hygieneVisits the rules its cover-hygiene pass
	// re-examined. Together they say whether a tick did O(changed) work.
	challengers, hygieneVisits obs.Counter
	setupLat                   *obs.Histogram
}

// sampleRingSize is the hardware-tier sample ring length: 4096 slots cover
// SampleStride × 4096 lookups between folds before the oldest samples are
// overwritten (lossy by design — they are samples).
const sampleRingSize = 1 << 12

// NewManager builds a manager for the given cache config (defaults
// applied). It is also used with a zero Capacity for hit-tracking-only
// agents (Config.TrackHits) that have no software tier.
func NewManager(cfg Config) *Manager {
	cfg = cfg.WithDefaults()
	return &Manager{
		cfg:   cfg,
		stats: make(map[classifier.RuleID]*RuleStats),
		// A miss pays both tiers' lookups, a hit only the hardware one.
		missPenalty: float64(cfg.Profile.HWLookup+cfg.Profile.Lookup) / float64(cfg.Profile.HWLookup),
		sampleMask:  uint64(cfg.SampleStride - 1),
		sampleShift: uint(bits.TrailingZeros64(uint64(cfg.SampleStride))),
		setupLat:    obs.NewHistogram(),
	}
}

// Config returns the manager's (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// EpochNow returns the current recency epoch.
func (m *Manager) EpochNow() uint64 { return m.epoch.Load() }

// AdvanceEpoch starts a new recency epoch (called once per agent tick) and
// returns the new value.
func (m *Manager) AdvanceEpoch() uint64 { return m.epoch.Add(1) }

// Ensure returns the rule's stats record, creating it on first sight.
// Caller must hold the agent's exclusive lock.
func (m *Manager) Ensure(id classifier.RuleID) *RuleStats {
	if s, ok := m.stats[id]; ok {
		return s
	}
	s := &RuleStats{}
	m.stats[id] = s
	return s
}

// Forget drops the rule's stats record. Caller must hold the agent's
// exclusive lock.
func (m *Manager) Forget(id classifier.RuleID) { delete(m.stats, id) }

// Stats returns the rule's stats record, or nil if untracked. Safe under
// the agent's read lock.
func (m *Manager) Stats(id classifier.RuleID) *RuleStats { return m.stats[id] }

// Tracked returns how many rules have stats records.
func (m *Manager) Tracked() int { return len(m.stats) }

// samplePoint decides, from the packet header and the current recency
// epoch alone, whether this lookup is a popularity sample point. The hash
// (a splitmix64-style finalizer) is a pure function, so sampling is fully
// deterministic and replayable; mixing in the epoch rotates the sampled
// flow-subset every agent tick. Zero-alloc, hot path.
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
func (m *Manager) SampleHW(dst, src uint32, id classifier.RuleID) {
	if !m.samplePoint(dst, src) {
		return
	}
	i := m.ringHead.Add(1) - 1
	m.ring[i%sampleRingSize].Store(uint64(id))
}

// FoldSamples drains the sample ring into the per-rule stats map, crediting
// every sampled hit to the given epoch (recency granularity is therefore
// the fold cadence — one agent tick — which is exactly the epoch
// granularity anyway). originalOf maps physical entry IDs (which may be
// partition fragments) to their original rule; nil means identity. IDs
// without a stats record (rule deleted since the sample) and zero slots
// (never written) are skipped. Caller must hold the agent's exclusive lock.
func (m *Manager) FoldSamples(epoch uint64, originalOf func(classifier.RuleID) classifier.RuleID) {
	head := m.ringHead.Load()
	start := m.ringFolded
	if head-start > sampleRingSize {
		start = head - sampleRingSize // older samples were overwritten
	}
	for i := start; i < head; i++ {
		id := classifier.RuleID(m.ring[i%sampleRingSize].Load())
		if id == 0 {
			continue
		}
		if originalOf != nil {
			id = originalOf(id)
		}
		if s := m.stats[id]; s != nil {
			s.RecordHit(epoch)
		}
	}
	m.ringFolded = head
}

// SampleSoft counts a software-tier hit — the packet missed the TCAM (or
// hit a cover) and was resolved by the software table, paying both tiers'
// latencies — and reports whether the caller should record per-rule
// popularity, using the same sampling rate as the hardware tier so the two
// tiers' stats stay comparable. The aggregate count is exact: this path
// already paid for a full software lookup. Zero-alloc.
func (m *Manager) SampleSoft(dst, src uint32) bool {
	m.softHits.Inc()
	return m.samplePoint(dst, src)
}

// RecordMiss counts a lookup no rule matched; it still walked both tiers.
// Exact. Zero-alloc.
func (m *Manager) RecordMiss() { m.misses.Inc() }

// RecordSetup records one rule-setup (insert) virtual latency.
func (m *Manager) RecordSetup(d time.Duration) { m.setupLat.RecordDuration(d) }

// NotePromotion / NoteDemotion / NoteCovers count tier moves and cover-rule
// churn, driven by the agent under its lock.
func (m *Manager) NotePromotion()          { m.promotions.Inc() }
func (m *Manager) NoteDemotion()           { m.demotions.Inc() }
func (m *Manager) NoteCoverInstalls(n int) { m.coverInstalls.Add(uint64(n)) }
func (m *Manager) NoteCoverRemovals(n int) { m.coverRemovals.Add(uint64(n)) }

// NoteChallengers / NoteHygieneVisits count the work one rebalance pass did
// beyond its fixed scan: software-only rules ranked against the residents,
// and rules the cover-hygiene pass re-examined.
func (m *Manager) NoteChallengers(n int)   { m.challengers.Add(uint64(n)) }
func (m *Manager) NoteHygieneVisits(n int) { m.hygieneVisits.Add(uint64(n)) }

// Score ranks a rule for residency under the configured policy: higher
// scores deserve hardware slots. slots is the number of hardware entries
// the rule occupies (or would occupy), ≥ 1; only the cost-aware policy
// uses it. Ties are broken by the caller (rule ID) so rankings are
// deterministic.
func (m *Manager) Score(s *RuleStats, slots int) float64 {
	if s == nil {
		return 0
	}
	switch m.cfg.Policy {
	case PolicyLFU:
		return float64(s.Hits())
	case PolicyCostAware:
		if slots < 1 {
			slots = 1
		}
		return float64(s.Hits()) * m.missPenalty / float64(slots)
	default: // PolicyLRU
		return float64(s.LastEpoch())
	}
}

// Snapshot is a point-in-time copy of the hierarchy's aggregate metrics.
// HWHits is a sampled estimate (sampled count × SampleStride, exact at
// stride 1); SoftHits and Misses are exact.
type Snapshot struct {
	HWHits, SoftHits, Misses     uint64
	Promotions, Demotions        uint64
	CoverInstalls, CoverRemovals uint64
	// RebalanceChallengers and HygieneVisits count the rules rebalance
	// passes ranked against the residents and re-examined for cover
	// hygiene; both stay flat across ticks that changed nothing.
	RebalanceChallengers, HygieneVisits uint64
	Epoch                               uint64
	Tracked                             int

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
		HWHits:               m.ringHead.Load() << m.sampleShift,
		SoftHits:             m.softHits.Value(),
		Misses:               m.misses.Value(),
		Promotions:           m.promotions.Value(),
		Demotions:            m.demotions.Value(),
		CoverInstalls:        m.coverInstalls.Value(),
		CoverRemovals:        m.coverRemovals.Value(),
		RebalanceChallengers: m.challengers.Value(),
		HygieneVisits:        m.hygieneVisits.Value(),
		Epoch:                m.epoch.Load(),
		Tracked:              len(m.stats),
		SetupP50:             m.setupLat.QuantileDuration(0.50),
		SetupP99:             m.setupLat.QuantileDuration(0.99),
	}
}

// Register exposes the hierarchy's metrics on an obs registry under the
// hermes_cache_* namespace, /metrics-ready.
func (m *Manager) Register(reg *obs.Registry) {
	reg.CounterFunc("hermes_cache_hw_hits_total", "", "lookups answered by the hardware (TCAM) tier (sampled estimate)", func() uint64 {
		return m.ringHead.Load() << m.sampleShift
	})
	reg.CounterFunc("hermes_cache_soft_hits_total", "", "lookups resolved by the software tier", m.softHits.Value)
	reg.CounterFunc("hermes_cache_misses_total", "", "lookups no rule matched", m.misses.Value)
	reg.CounterFunc("hermes_cache_promotions_total", "", "rules promoted into the hardware tier", m.promotions.Value)
	reg.CounterFunc("hermes_cache_demotions_total", "", "rules demoted to the software tier", m.demotions.Value)
	reg.CounterFunc("hermes_cache_cover_installs_total", "", "cover rules installed for dependency-safe eviction", m.coverInstalls.Value)
	reg.CounterFunc("hermes_cache_cover_removals_total", "", "cover rules removed", m.coverRemovals.Value)
	reg.CounterFunc("hermes_cache_rebalance_challengers_total", "", "software-only rules ranked against the residents by rebalance passes", m.challengers.Value)
	reg.CounterFunc("hermes_cache_hygiene_visits_total", "", "rules re-examined by rebalance cover-hygiene passes", m.hygieneVisits.Value)
	reg.GaugeFunc("hermes_cache_hit_ratio", "", "fraction of lookups answered by the hardware tier", func() float64 {
		return m.Snapshot().HitRatio()
	})
	reg.RegisterHistogram("hermes_cache_setup_latency_ns", "", "ns", "virtual rule-setup latency through the cached path", m.setupLat)
}
