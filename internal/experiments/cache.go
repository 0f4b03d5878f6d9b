package experiments

import (
	"fmt"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/loadgen"
	"hermes/internal/rulecache"
	"hermes/internal/stats"
	"hermes/internal/workload"
)

// This file drives the flow-driven rule caching hierarchy (DESIGN.md §16)
// across its policy × workload design space: cache capacity as a fraction
// of the rule set crossed with Zipf traffic skew, for each promotion
// policy. The rule set and its churn come from a loadgen schedule; the
// packet stream is Zipf-popular over the installed rules with periodic
// sequential cold-scan bursts — the canonical adversary that pollutes
// recency-based caches while frequency- and cost-based ones hold their
// hot set.

// CacheCell is one point of the cache sweep, machine-readable for
// BENCH_cache.json.
type CacheCell struct {
	Policy     string  `json:"policy"`
	ZipfS      float64 `json:"zipf_s"`
	CapFrac    float64 `json:"cap_frac"`
	HitRatio   float64 `json:"hit_ratio"`
	Promotions uint64  `json:"promotions"`
	Demotions  uint64  `json:"demotions"`
	Covers     uint64  `json:"cover_installs"`
}

// CacheData is the sweep's machine-readable summary. The booleans encode
// the acceptance claim: at Zipf s ≥ 1.1 with the cache at ≤ 25% of the
// rule set, LFU and cost-aware promotion beat LRU on hit ratio.
type CacheData struct {
	Rules       int         `json:"rules"`
	Lookups     int         `json:"lookups_per_cell"`
	Cells       []CacheCell `json:"cells"`
	MinHitRatio float64     `json:"min_hit_ratio"`
	LFUBeatsLRU bool        `json:"lfu_beats_lru"`
	CostBeatsLR bool        `json:"cost_beats_lru"`
}

// cacheZipfSweep and cacheFracSweep are the swept axes.
var (
	cacheZipfSweep = []float64{1.05, 1.1, 1.3}
	cacheFracSweep = []float64{0.10, 0.25}
	cachePolicies  = []rulecache.Policy{
		rulecache.PolicyLRU, rulecache.PolicyLFU, rulecache.PolicyCostAware,
	}
)

// cacheRun measures one cell: build the rule set through a cached agent via
// a loadgen schedule, then serve the packet stream and report the measured
// window's tier mix.
func cacheRun(sched *loadgen.Schedule, rules int, capacity int, policy rulecache.Policy,
	zipfS float64, lookups int) CacheCell {

	cfg := defaultHermesConfig()
	cfg.Cache = &rulecache.Config{Capacity: capacity, Policy: policy}
	a := newAgent(tcamPica(), cfg)

	// Install the rule set (with its churn: Zipf re-arrivals surface as
	// modifies) through the cached control path.
	now := replayCachedSchedule(a, sched, cfg.TickInterval)

	// Address book: flow index (== Zipf rank) → a packet inside the rule's
	// destination prefix.
	addr := make(map[classifier.RuleID]uint32, rules)
	for _, e := range sched.Events {
		if e.Op != loadgen.OpDelete {
			addr[e.Rule.ID] = e.Rule.Match.Dst.Addr | 1
		}
	}

	pop := workload.NewZipf(workload.SubStream(int64(777), uint64(len(sched.Events))+uint64(capacity)), zipfS, 1, uint64(rules))

	const (
		tickEvery = 2000  // lookups between Rule Manager ticks
		scanEvery = 10000 // lookups between cold scans
		scanLen   = 1000  // sequential rules touched per cold scan
	)
	lookupOne := func(flow uint64) {
		if dst, ok := addr[classifier.RuleID(flow)+1]; ok {
			a.Lookup(dst, 0)
		}
	}
	step := func(n int, scanPos *uint64) {
		for i := 0; i < n; i++ {
			lookupOne(pop.Next())
			if (i+1)%scanEvery == 0 {
				// Cold scan: a sequential sweep over the rule set (rank
				// order is popularity-agnostic here), polluting recency.
				for j := 0; j < scanLen; j++ {
					lookupOne((*scanPos + uint64(j)) % uint64(rules))
				}
				*scanPos += scanLen
			}
			if (i+1)%tickEvery == 0 {
				now += cfg.TickInterval
				if end := a.Tick(now); end != 0 {
					a.Advance(end)
				}
			}
		}
	}

	// Warm phase trains the policy, then the measured window starts from a
	// counter snapshot so warm-up misses don't dilute the verdict.
	var scanPos uint64
	step(lookups/2, &scanPos)
	before := a.CacheStats()
	step(lookups, &scanPos)
	after := a.CacheStats()

	served := float64(after.Lookups() - before.Lookups())
	hitRatio := 0.0
	if served > 0 {
		hitRatio = float64(after.HWHits-before.HWHits) / served
	}
	return CacheCell{
		Policy:     policy.String(),
		ZipfS:      zipfS,
		CapFrac:    float64(capacity) / float64(rules),
		HitRatio:   hitRatio,
		Promotions: after.Promotions,
		Demotions:  after.Demotions,
		Covers:     after.CoverInstalls,
	}
}

// replayCachedSchedule applies a loadgen schedule's inserts / modifies /
// deletes to a cached agent, ticking at the configured interval, and
// returns the virtual time reached.
func replayCachedSchedule(a *core.Agent, sched *loadgen.Schedule, tick time.Duration) time.Duration {
	nextTick := tick
	var now time.Duration
	for _, e := range sched.Events {
		for e.At >= nextTick {
			if end := a.Tick(nextTick); end != 0 {
				a.Advance(end)
			}
			nextTick += tick
		}
		now = e.At
		switch e.Op {
		case loadgen.OpInsert:
			a.Insert(now, e.Rule) //nolint:errcheck
		case loadgen.OpModify:
			a.Modify(now, e.Rule) //nolint:errcheck
		case loadgen.OpDelete:
			a.Delete(now, e.Rule.ID) //nolint:errcheck
		}
	}
	if end := a.Tick(now + tick); end != 0 {
		a.Advance(end)
	}
	return now + tick
}

// CacheSweepData runs the sweep and returns both the rendered result and
// the machine-readable summary.
func CacheSweepData(scale float64) (*Result, CacheData) {
	scale = clampScale(scale)
	rules := scaleInt(2000, scale, 400)
	lookups := scaleInt(120000, scale, 24000)

	// The rule universe, with churn: Zipf re-arrivals become modifies, so
	// the control path (insertCached / modifyCached) is exercised too.
	sched, err := loadgen.Generate(loadgen.Config{
		Flows:    rules + rules/4,
		Rate:     500,
		Arrival:  loadgen.ArrivalPoisson,
		Distinct: uint64(rules),
		ZipfS:    1.1,
		Seed:     42,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: cache schedule: %v", err))
	}

	data := CacheData{Rules: rules, Lookups: lookups, MinHitRatio: 1}
	tbl := &stats.Table{
		Title: "cache",
		Headers: []string{"policy", "zipf s", "cache", "hit ratio",
			"promos", "demos", "covers"},
	}

	// hit[frac][s][policy] for the verdict booleans.
	type key struct {
		frac, s float64
		policy  string
	}
	hit := map[key]float64{}

	for _, frac := range cacheFracSweep {
		capacity := int(frac * float64(rules))
		for _, s := range cacheZipfSweep {
			for _, p := range cachePolicies {
				cell := cacheRun(sched, rules, capacity, p, s, lookups)
				data.Cells = append(data.Cells, cell)
				hit[key{frac, s, cell.Policy}] = cell.HitRatio
				tbl.AddRow(cell.Policy, fmt.Sprintf("%.2f", s),
					fmt.Sprintf("%d%%", int(frac*100)), fmt.Sprintf("%.3f", cell.HitRatio),
					fmt.Sprintf("%d", cell.Promotions), fmt.Sprintf("%d", cell.Demotions),
					fmt.Sprintf("%d", cell.Covers))
			}
		}
	}

	// Acceptance view: at s ≥ 1.1 with the cache ≤ 25% of the rule set,
	// frequency- and cost-based promotion must beat recency.
	data.LFUBeatsLRU, data.CostBeatsLR = true, true
	for _, frac := range cacheFracSweep {
		for _, s := range cacheZipfSweep {
			if s < 1.1 {
				continue
			}
			lru := hit[key{frac, s, "lru"}]
			if lfu := hit[key{frac, s, "lfu"}]; lfu <= lru {
				data.LFUBeatsLRU = false
			}
			if cost := hit[key{frac, s, "cost"}]; cost <= lru {
				data.CostBeatsLR = false
			}
			for _, p := range []string{"lfu", "cost"} {
				if h := hit[key{frac, s, p}]; h < data.MinHitRatio {
					data.MinHitRatio = h
				}
			}
		}
	}

	res := &Result{
		ID:     "cache",
		Title:  "FDRC caching hierarchy: policy × Zipf skew × cache size",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			fmt.Sprintf("%d rules, %d measured lookups per cell, cold scan every 10k lookups", rules, lookups),
			fmt.Sprintf("lfu beats lru at s>=1.1, cache<=25%%: %v", data.LFUBeatsLRU),
			fmt.Sprintf("cost-aware beats lru at s>=1.1, cache<=25%%: %v", data.CostBeatsLR),
			fmt.Sprintf("min {lfu,cost} hit ratio at s>=1.1, cache<=25%%: %.3f", data.MinHitRatio),
		},
	}
	return res, data
}

// CacheSweep is the registry entry point.
func CacheSweep(scale float64) *Result {
	res, _ := CacheSweepData(scale)
	return res
}
