package hermes_test

// One testing.B benchmark per paper artifact (Table 1, Figures 1 and 8–15,
// the §8.6 predictor sweep, the §8.4 BGP study) plus the design-choice
// ablations. Each bench drives the same experiment code the hermes-bench
// command uses, at a reduced scale so `go test -bench=.` completes in
// minutes; run `hermes-bench -scale 1` (or 4) for paper-sized output.
//
// Benchmarks report experiment-specific metrics (median/p95 latency,
// violation counts) via b.ReportMetric so regressions in the *shape* of a
// result are visible, not just its runtime.

import (
	"math/rand"
	"testing"
	"time"

	"hermes"
	"hermes/internal/core"
	"hermes/internal/experiments"
	"hermes/internal/obs"
	"hermes/internal/stats"
)

// benchScale keeps the per-iteration cost of experiment benches bounded.
const benchScale = 0.1

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (rule update rate vs occupancy).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure1 regenerates Fig. 1 (JCT increase ratio CDFs).
func BenchmarkFigure1(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFigure8 regenerates Fig. 8 (rule installation time CDFs).
func BenchmarkFigure8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFigure9 regenerates Fig. 9 (flow completion time CDFs).
func BenchmarkFigure9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFigure10 regenerates Fig. 10 (Hermes vs Tango vs ESPRES RIT).
func BenchmarkFigure10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFigure11 regenerates Fig. 11 (RIT time series).
func BenchmarkFigure11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFigure12 regenerates Fig. 12 (Hermes-SIMPLE threshold sweep).
func BenchmarkFigure12(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFigure13 regenerates Fig. 13 (latency vs slack factor).
func BenchmarkFigure13(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFigure14 regenerates Fig. 14 (ASIC overhead vs guarantee).
func BenchmarkFigure14(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFigure15 regenerates Fig. 15 (algorithm runtime/memory).
func BenchmarkFigure15(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkPredictorSweep regenerates the §8.6 sensitivity analysis.
func BenchmarkPredictorSweep(b *testing.B) { runExperiment(b, "predsweep") }

// BenchmarkBGP regenerates the §8.4 BGP study.
func BenchmarkBGP(b *testing.B) { runExperiment(b, "bgp") }

// --- ablation benches (DESIGN.md §6) ---------------------------------------

// BenchmarkAblationLowPriorityBypass, BenchmarkAblationMerge and
// BenchmarkAblationAtomicMigration run the full ablation suite; per-choice
// shape assertions live in internal/experiments tests.
func BenchmarkAblationLowPriorityBypass(b *testing.B) { runExperiment(b, "ablations") }

// BenchmarkAblationMerge measures Algorithm 1 with and without the merge
// step on the sibling-cut workload where merging halves the fragments.
func BenchmarkAblationMerge(b *testing.B) {
	for _, merge := range []struct {
		name    string
		disable bool
	}{{"merge", false}, {"no-merge", true}} {
		b.Run(merge.name, func(b *testing.B) {
			var perRule float64
			for i := 0; i < b.N; i++ {
				m := experiments.MergeAblationRun(60, merge.disable)
				if m.RulesCut > 0 {
					perRule = float64(m.PartitionsInstalled) / float64(m.RulesCut)
				}
			}
			b.ReportMetric(perRule, "partitions/rule")
		})
	}
}

// BenchmarkAblationAtomicMigration contrasts migration orderings by
// exposed rule-seconds.
func BenchmarkAblationAtomicMigration(b *testing.B) {
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"atomic", false}, {"naive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var exposed float64
			for i := 0; i < b.N; i++ {
				sw := hermes.NewSwitch("bench", hermes.Pica8P3290)
				agent, err := hermes.NewAgent(sw, hermes.Config{
					Guarantee:        5 * time.Millisecond,
					DisableRateLimit: true,
					NaiveMigration:   mode.naive,
				})
				if err != nil {
					b.Fatal(err)
				}
				now := time.Duration(0)
				for j := 0; j < 50; j++ {
					r := hermes.Rule{
						ID:       hermes.RuleID(j + 1),
						Match:    hermes.DstMatch(hermes.NewPrefix(0x0A000000|uint32(j)<<8, 24)),
						Priority: int32(j + 1),
					}
					agent.Insert(now, r) //nolint:errcheck
					now += time.Millisecond
				}
				if end := agent.ForceMigration(now); end != 0 {
					agent.Advance(end)
				}
				exposed = agent.Metrics().ExposedRuleSeconds
			}
			b.ReportMetric(exposed, "exposed-rule-s")
		})
	}
}

// --- core hot-path microbenches ---------------------------------------------

// benchObserver builds a fully instrumented Observer (registry, per-class
// histograms, tracer) for the obs-overhead comparison benches.
func benchObserver() *core.Observer {
	return core.NewObserver(obs.NewRegistry(), 4096)
}

// BenchmarkAgentInsert measures control-plane insertion with the obs
// subsystem disabled (noop) and fully enabled (obs: per-class histograms,
// TCAM shift histograms, lifecycle tracer). The budget is ≤5% throughput
// overhead and zero additional allocs/op — metric recording itself never
// touches the heap (enforced by TestRecordPathZeroAllocs in internal/obs).
func BenchmarkAgentInsert(b *testing.B) {
	for _, mode := range []struct {
		name     string
		observed bool
	}{{"noop", false}, {"obs", true}} {
		b.Run(mode.name, func(b *testing.B) {
			sw := hermes.NewSwitch("bench", hermes.Pica8P3290)
			cfg := hermes.Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true}
			if mode.observed {
				cfg.Observer = benchObserver()
			}
			agent, err := hermes.NewAgent(sw, cfg)
			if err != nil {
				b.Fatal(err)
			}
			now := time.Duration(0)
			const window = 2000
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := hermes.Rule{
					ID:       hermes.RuleID(i + 1),
					Match:    hermes.DstMatch(hermes.NewPrefix(uint32(i)<<8, 24)),
					Priority: int32(i%50 + 1),
				}
				if _, err := agent.Insert(now, r); err != nil {
					b.Fatal(err)
				}
				if i >= window {
					if _, err := agent.Delete(now, hermes.RuleID(i+1-window)); err != nil {
						b.Fatal(err)
					}
				}
				now += time.Millisecond
				if i%64 == 63 {
					if end := agent.Tick(now); end != 0 {
						agent.Advance(end)
					}
				}
			}
		})
	}
}

// BenchmarkAgentLookup measures the per-packet read path with and without
// the obs subsystem attached. Lookup is data plane — obs instruments only
// control-plane operations — so the two sub-benches must be
// indistinguishable.
func BenchmarkAgentLookup(b *testing.B) {
	for _, mode := range []struct {
		name     string
		observed bool
	}{{"noop", false}, {"obs", true}} {
		b.Run(mode.name, func(b *testing.B) {
			sw := hermes.NewSwitch("bench", hermes.Pica8P3290)
			cfg := hermes.Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true}
			if mode.observed {
				cfg.Observer = benchObserver()
			}
			agent, err := hermes.NewAgent(sw, cfg)
			if err != nil {
				b.Fatal(err)
			}
			now := time.Duration(0)
			for i := 0; i < 500; i++ {
				agent.Insert(now, hermes.Rule{ //nolint:errcheck
					ID:       hermes.RuleID(i + 1),
					Match:    hermes.DstMatch(hermes.NewPrefix(uint32(i)<<12, 20)),
					Priority: int32(i % 50),
				})
				now += time.Millisecond
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.Lookup(uint32(i)<<12, 0)
			}
		})
	}
}

// BenchmarkCachedLookup contrasts the two-tier caching hierarchy against
// the uncached pipeline on the same all-resident working set: every lookup
// hits the hardware tier, so the delta is the hierarchy's pure read-path
// overhead (budget <5%). The rule count matches the cache experiment's
// operating scale so the hierarchy's constant per-lookup cost (one sharded
// atomic add) is weighed against a realistically sized classifier, not a
// toy one.
func BenchmarkCachedLookup(b *testing.B) {
	const rules = 2048
	for _, mode := range []struct {
		name   string
		cached bool
	}{{"nocache", false}, {"cached", true}} {
		b.Run(mode.name, func(b *testing.B) {
			sw := hermes.NewSwitch("bench", hermes.Pica8P3290)
			cfg := hermes.Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true}
			if mode.cached {
				cfg.Cache = &hermes.CacheConfig{Capacity: rules + 64, Policy: hermes.CacheLFU}
			}
			agent, err := hermes.NewAgent(sw, cfg)
			if err != nil {
				b.Fatal(err)
			}
			now := time.Duration(0)
			for i := 0; i < rules; i++ {
				agent.Insert(now, hermes.Rule{ //nolint:errcheck
					ID:       hermes.RuleID(i + 1),
					Match:    hermes.DstMatch(hermes.NewPrefix(uint32(i)<<12, 20)),
					Priority: int32(i % 50),
				})
				now += time.Millisecond
			}
			for i := 0; i < 64; i++ {
				agent.Lookup(uint32(i)<<12, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.Lookup(uint32(i%rules)<<12, 0)
			}
		})
	}
}

// BenchmarkMigration measures a full shadow→main migration cycle.
func BenchmarkMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sw := hermes.NewSwitch("bench", hermes.Pica8P3290)
		agent, err := hermes.NewAgent(sw, hermes.Config{Guarantee: 5 * time.Millisecond, DisableRateLimit: true})
		if err != nil {
			b.Fatal(err)
		}
		now := time.Duration(0)
		for j := 0; j < 100; j++ {
			agent.Insert(now, hermes.Rule{ //nolint:errcheck
				ID:       hermes.RuleID(j + 1),
				Match:    hermes.DstMatch(hermes.NewPrefix(uint32(j)<<8, 24)),
				Priority: int32(j + 1),
			})
			now += time.Millisecond
		}
		b.StartTimer()
		if end := agent.ForceMigration(now); end != 0 {
			agent.Advance(end)
		}
	}
}

// BenchmarkVarysSimulation measures a small end-to-end simulation.
func BenchmarkVarysSimulation(b *testing.B) {
	res, err := experiments.Run("fig14", 1) // warm sanity check
	if err != nil || res == nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("fig1", 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatsSummaries guards the reporting layer's cost.
func BenchmarkStatsSummaries(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := stats.Summarize(vals)
		_ = s.Median()
		_ = s.P99()
	}
}

// BenchmarkAutoTune runs the self-tuning slack experiment (§8.6 future
// work, implemented as an extension).
func BenchmarkAutoTune(b *testing.B) { runExperiment(b, "autotune") }

// BenchmarkShadowSwitchComparison runs the §9 software-vs-hardware shadow
// design-space experiment.
func BenchmarkShadowSwitchComparison(b *testing.B) { runExperiment(b, "shadowswitch") }
