// Command tcamctl is a TCAM microbenchmark tool: it drives a single
// switch model (raw or Hermes-managed) with a configurable rule stream and
// prints latency statistics — the workhorse behind the §8.5/§8.6
// microbenchmarks, usable interactively for exploring parameters.
//
// Usage:
//
//	tcamctl -switch "Dell 8132F" -rate 1000 -overlap 1.0 -rules 5000 -hermes
//	tcamctl -switch "Pica8 P-3290" -occupancy 2000       # Table-1 style probe
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/predict"
	"hermes/internal/stats"
	"hermes/internal/tcam"
	"hermes/internal/workload"
)

func main() {
	profName := flag.String("switch", "Pica8 P-3290", "switch profile name")
	rules := flag.Int("rules", 5000, "rules to insert")
	rate := flag.Float64("rate", 1000, "insertion rate (rules/second)")
	overlap := flag.Float64("overlap", 0, "overlap fraction [0,1]")
	useHermes := flag.Bool("hermes", false, "manage the switch with Hermes")
	guarantee := flag.Duration("guarantee", 5*time.Millisecond, "Hermes guarantee")
	slack := flag.Float64("slack", 1.0, "Hermes slack factor")
	occupancy := flag.Int("occupancy", 0, "probe update rate at a fixed occupancy instead (Table 1 mode)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	profile, ok := tcam.ProfileByName(*profName)
	if !ok {
		fmt.Fprintf(os.Stderr, "tcamctl: unknown switch %q\n", *profName)
		os.Exit(1)
	}

	if *occupancy > 0 {
		probeOccupancy(profile, *occupancy)
		return
	}

	stream := workload.MicroBench(rand.New(rand.NewSource(*seed)), workload.MicroBenchConfig{
		Rules: *rules, RatePerSec: *rate, OverlapFrac: *overlap, MaxPriority: 64,
	})
	if *useHermes {
		runHermes(profile, stream, *guarantee, *slack)
		return
	}
	runRaw(profile, stream)
}

// probeOccupancy reproduces one Table-1 cell interactively.
func probeOccupancy(profile *tcam.Profile, occ int) {
	tbl := tcam.NewTable("probe", profile.Capacity, profile)
	for i := 0; i < occ; i++ {
		r := classifier.Rule{
			ID:       classifier.RuleID(i + 1),
			Match:    classifier.DstMatch(classifier.NewPrefix(uint32(i)<<8, 24)),
			Priority: 10,
		}
		if _, err := tbl.Insert(r); err != nil {
			fmt.Fprintf(os.Stderr, "tcamctl: %v\n", err)
			os.Exit(1)
		}
	}
	cost := tbl.InsertCost(1000)
	fmt.Printf("%s at occupancy %d: top-priority insert costs %v (%.0f updates/s)\n",
		profile.Name, occ, cost, 1/cost.Seconds())
}

func runRaw(profile *tcam.Profile, stream []workload.TimedRule) {
	sw := tcam.NewSwitch("raw", profile)
	tbl := sw.Table()
	var lats []float64
	errors := 0
	for _, tr := range stream {
		cost, err := tbl.Insert(tr.Rule)
		if err != nil {
			errors++
			continue
		}
		done := sw.Submit(tr.At, cost)
		lats = append(lats, (done-tr.At).Seconds()*1e3)
	}
	fmt.Printf("raw %s: %d rules inserted, %d rejected\n", profile.Name, len(lats), errors)
	printStats(lats)
}

func runHermes(profile *tcam.Profile, stream []workload.TimedRule, guarantee time.Duration, slack float64) {
	sw := tcam.NewSwitch("hermes", profile)
	agent, err := core.New(sw, core.Config{
		Guarantee:        guarantee,
		Corrector:        predict.Slack{Factor: slack},
		DisableRateLimit: true,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcamctl: %v\n", err)
		os.Exit(1)
	}
	tick := 10 * time.Millisecond
	nextTick := tick
	var lats []float64
	for _, tr := range stream {
		for tr.At >= nextTick {
			if end := agent.Tick(nextTick); end != 0 {
				agent.Advance(end)
			}
			nextTick += tick
		}
		res, err := agent.Insert(tr.At, tr.Rule)
		if err != nil {
			continue
		}
		lats = append(lats, (res.Completed-tr.At).Seconds()*1e3)
	}
	m := agent.Metrics()
	fmt.Printf("hermes on %s (guarantee %v, shadow %d entries = %.1f%% overhead)\n",
		profile.Name, guarantee, agent.ShadowSize(), agent.OverheadFraction()*100)
	printStats(lats)
	fmt.Printf("paths: shadow=%d bypass=%d main=%d redundant=%d | violations=%d migrations=%d partitions=%d\n",
		m.ShadowInserts, m.Bypasses, m.MainInserts, m.Redundant,
		m.Violations, m.Migrations, m.PartitionsInstalled)
}

func printStats(lats []float64) {
	if len(lats) == 0 {
		fmt.Println("no samples")
		return
	}
	s := stats.Summarize(lats)
	fmt.Printf("insert latency (ms): median=%.3f mean=%.3f p95=%.3f p99=%.3f max=%.3f\n",
		s.Median(), s.Mean(), s.P95(), s.P99(), s.Max())
}
