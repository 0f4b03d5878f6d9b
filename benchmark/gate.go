package main

import (
	"fmt"
	"math/rand"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/tcam"
	"hermes/internal/verify"
	"hermes/internal/workload"
)

const (
	gateEpochRules = 3000 // inserts per epoch; an insert is followed by the delete of the rule half an epoch back
	gateTick       = 10 * time.Millisecond
	gateTwinEpochs = 5 // epochs the TrackLogical twin replays under verify.Agent
)

// gateWL is gatekeeper_overlap: one core.Agent in virtual time with the
// Gate Keeper as shipped (token bucket on), fed nested MicroBench rules.
type gateWL struct {
	epochs   [][]workload.TimedRule // epochs[0] warms the agent inside set-up
	rules    int                    // inserts per epoch
	dig      uint64
	lat      []int64 // wall time of every measured op
	insertNS []int64
}

// structureSeed roots the nesting structure of every MicroBench rule set
// the benchmark uses. How rules nest, and when they arrive relative to
// the Rule Manager's ticks, decides how much re-partitioning an epoch
// costs, and that is heavy-tailed: independent 3000-rule epochs take 25 to
// 290 ms, and even the same epochs in another order differ by a fifth in
// total, wider than any regression bound. So structure, arrival times and
// epoch order are the same in every run, and --seed moves the rules
// through the address space (an XOR mask keeps every containment
// relation) and, for the lookup workloads, draws the packets.
const structureSeed = 0x4845524d4553

// nestedRules generates MicroBench stream number k of n rules, 1000
// inserts/s Poisson, its addresses XORed with mask.
func nestedRules(k uint64, n int, overlap float64, mask uint32) []workload.TimedRule {
	rules := workload.MicroBench(rand.New(rand.NewSource(workload.SubSeed(structureSeed, k))),
		workload.MicroBenchConfig{Rules: n, RatePerSec: 1000, OverlapFrac: overlap, MaxPriority: 64})
	for i := range rules {
		dst := rules[i].Rule.Match.Dst
		rules[i].Rule.Match.Dst = classifier.NewPrefix(dst.Addr^mask, dst.Len)
	}
	return rules
}

func newGateWL(seed int64, scale float64) *gateWL {
	// Below one measured epoch's worth of work the epoch itself shrinks.
	w := &gateWL{rules: min(gateEpochRules, scaled(22*gateEpochRules, scale)), dig: fnvOffset}
	n := 1 + scaled(22, scale)
	rng := workload.SubStream(seed, 2)
	for k := 0; k < n; k++ {
		w.epochs = append(w.epochs, nestedRules(uint64(k+1), w.rules, 0.5, rng.Uint32()))
		w.dig = digestRules(w.dig, w.epochs[k])
	}
	w.lat = make([]int64, 0, 2*w.rules*n)
	w.insertNS = make([]int64, 0, w.rules*n)
	return w
}

func (w *gateWL) digest() uint64 { return w.dig }

// digestRules folds a rule stream into the digest h (fnvOffset to start).
func digestRules(h uint64, rules []workload.TimedRule) uint64 {
	for _, tr := range rules {
		r := tr.Rule
		for _, v := range [...]uint64{uint64(tr.At), uint64(r.ID), uint64(r.Match.Dst.Addr), uint64(r.Match.Dst.Len),
			uint64(r.Match.Src.Addr), uint64(r.Match.Src.Len), uint64(r.Priority), uint64(r.Action.Port)} {
			h = fnvMix(h, v)
		}
	}
	return h
}

func newGateAgent(cfg core.Config) (*core.Agent, error) {
	cfg.Guarantee = 5 * time.Millisecond
	return core.New(tcam.NewSwitch("gate", tcam.Pica8P3290), cfg)
}

// gateClock is the virtual time of one replay.
type gateClock struct {
	base, nextTick time.Duration
}

// gateStats is what a replay observed from outside the agent.
type gateStats struct {
	ops, failed int
	paths       [5]int  // inserts by core.InsertPath
	insertNS    []int64 // wall time of each insert
	tickNS      int64
	ticks       int
}

// op books one finished flow-mod that started at t0 and returns its wall
// time.
func (st *gateStats) op(name string, t0 int64, err error, lat *[]int64, tr *tracer) int64 {
	t1 := nowNS()
	st.ops++
	if err != nil {
		st.failed++
	}
	if lat != nil {
		*lat = append(*lat, t1-t0)
	}
	if st.ops%sampleEvery == 0 {
		tr.add(name, uint64(st.ops), 0, t0, t1)
	}
	return t1 - t0
}

// replayEpoch applies one epoch: every insert at its virtual time, followed
// by the delete of the rule half an epoch back; the Rule Manager ticks every
// 10 ms; the tail is deleted at the end so the next epoch starts empty.
// Every op is timed into lat when lat is non-nil. mid, when non-nil, runs
// after the last insert with the table at its fullest.
func replayEpoch(a *core.Agent, clk *gateClock, stream []workload.TimedRule, lat *[]int64, st *gateStats, tr *tracer, mid func() error) error {
	tick := func(upTo time.Duration) {
		for clk.nextTick <= upTo {
			t0 := nowNS()
			if end := a.Tick(clk.nextTick); end != 0 {
				a.Advance(end)
			}
			t1 := nowNS()
			st.tickNS += t1 - t0
			st.ticks++
			if st.ticks%sampleEvery == 0 {
				tr.add("core.tick", uint64(st.ticks), 0, t0, t1)
			}
			clk.nextTick += gateTick
		}
	}
	var now time.Duration
	lag := len(stream) / 2
	for i, r := range stream {
		now = clk.base + r.At
		tick(now)
		t0 := nowNS()
		res, err := a.Insert(now, r.Rule)
		st.insertNS = append(st.insertNS, st.op("core.insert", t0, err, lat, tr))
		st.paths[res.Path]++
		if i >= lag {
			t0 = nowNS()
			_, err = a.Delete(now, stream[i-lag].Rule.ID)
			st.op("core.delete", t0, err, lat, tr)
		}
	}
	if mid != nil {
		if err := mid(); err != nil {
			return err
		}
	}
	for i := len(stream) - lag; i < len(stream); i++ {
		t0 := nowNS()
		_, err := a.Delete(now, stream[i].Rule.ID)
		st.op("core.delete", t0, err, lat, tr)
	}
	tick(now + gateTick)
	clk.base = now + 100*time.Millisecond
	return nil
}

func (w *gateWL) run(tr *tracer) (rep, error) {
	var r rep
	t0 := nowNS()
	a, err := newGateAgent(core.Config{})
	if err != nil {
		return r, err
	}
	clk := &gateClock{nextTick: gateTick}
	st := &gateStats{insertNS: w.insertNS[:0]}
	if err := replayEpoch(a, clk, w.epochs[0], nil, st, nil, nil); err != nil {
		return r, err
	}
	warmOps := st.ops
	st.insertNS, st.tickNS, st.ticks = st.insertNS[:0], 0, 0
	r.SetupS = float64(nowNS()-t0) / 1e9

	lat := w.lat[:0]
	win := beginWindow()
	for _, stream := range w.epochs[1:] {
		if err := replayEpoch(a, clk, stream, &lat, st, tr, nil); err != nil {
			return r, err
		}
	}
	win.end(&r, st.ops-warmOps)
	r.Attempted, r.Failed = st.ops, st.failed
	r.setLatency(lat)

	m := a.Metrics()
	m.GuaranteedLatency, m.AllLatency = nil, nil
	r.Exact = fmt.Sprintf("%+v", m)
	if occ := a.ShadowOccupancy() + a.MainOccupancy(); occ != 0 {
		return r, fmt.Errorf("%d TCAM entries left after the last epoch drained", occ)
	}
	inserts := float64(m.Inserts)
	ins := st.insertNS
	sortNS(ins)
	r.Layer = map[string]float64{
		// Counts cover the agent's whole life, warm-up epoch included:
		// exact in virtual time, so any change is a behaviour change.
		"core.guarantee_miss_frac":   float64(m.Violations+m.ShadowFull+m.RateLimited) / inserts,
		"core.rate_limited":          float64(m.RateLimited),
		"core.rules_cut":             float64(m.RulesCut),
		"core.partitions_installed":  float64(m.PartitionsInstalled),
		"core.migrations":            float64(m.Migrations),
		"core.path_shadow_frac":      float64(st.paths[core.PathShadow]) / inserts,
		"core.path_main_frac":        float64(st.paths[core.PathMain]+st.paths[core.PathBypass]) / inserts,
		"core.path_redundant_frac":   float64(st.paths[core.PathRedundant]) / inserts,
		"core.tick_us":               per(float64(st.tickNS), float64(st.ticks)) / 1e3,
		"core.overlap_insert_p50_us": float64(quantileNS(ins, 0.50)) / 1e3,
		"core.overlap_insert_p99_us": float64(quantileNS(ins, 0.99)) / 1e3,
	}
	shifts := 0
	for _, t := range a.Switch().Slices() {
		shifts += t.Stats().Shifts
	}
	r.Layer["tcam.shifts_per_insert"] = float64(shifts) / inserts
	return r, nil
}

// verifyTwin replays the first epochs on an untimed twin that tracks its
// logical reference table and proves, with the table at its fullest and
// again drained, that the carved pipeline equals one monolithic TCAM.
func (w *gateWL) verifyTwin() error {
	a, err := newGateAgent(core.Config{TrackLogical: true})
	if err != nil {
		return err
	}
	check := func() error {
		ce, err := verify.Agent(a)
		if err != nil {
			return err
		}
		if ce != nil {
			return fmt.Errorf("carved pipeline differs from its logical table: %s", ce)
		}
		return nil
	}
	clk := &gateClock{nextTick: gateTick}
	for e := 0; e < len(w.epochs) && e < gateTwinEpochs; e++ {
		if err := replayEpoch(a, clk, w.epochs[e], nil, &gateStats{}, nil, check); err != nil {
			return fmt.Errorf("twin epoch %d: %w", e, err)
		}
		if err := check(); err != nil {
			return fmt.Errorf("twin epoch %d drained: %w", e, err)
		}
	}
	return nil
}

// gateProbes times the layers under the Gate Keeper directly, on the rules
// of one epoch with half of them installed:
// classifier.PartitionNewRule against the populated main-table trie, and
// tcam.Table insert and delete.
func gateProbes(stream []workload.TimedRule) map[string]float64 {
	half := len(stream) / 2
	var trie classifier.Trie
	table := tcam.NewTable("probe", tcam.Pica8P3290.Capacity, tcam.Pica8P3290)
	for _, tr := range stream[:half] {
		trie.Insert(tr.Rule)
		table.Insert(tr.Rule) //nolint:errcheck // capacity 4096 holds 1500 rules
	}
	rest := stream[half:]
	next := classifier.RuleID(1 << 40)
	mint := func() classifier.RuleID { next++; return next }
	t0 := nowNS()
	for _, tr := range rest {
		p := classifier.PartitionNewRule(tr.Rule, &trie, mint)
		sink += len(p.Parts)
	}
	partNS := nowNS() - t0
	// Insert and delete in chunks of 64, so occupancy stays near half.
	var insNS, delNS int64
	for len(rest) > 0 {
		chunk := rest[:min(64, len(rest))]
		rest = rest[len(chunk):]
		t0 = nowNS()
		for _, tr := range chunk {
			table.Insert(tr.Rule) //nolint:errcheck
		}
		t1 := nowNS()
		for _, tr := range chunk {
			table.Delete(tr.Rule.ID)
		}
		insNS, delNS = insNS+t1-t0, delNS+nowNS()-t1
	}
	n := float64(len(stream) - half)
	return map[string]float64{
		"classifier.partition_ns": float64(partNS) / n,
		"tcam.insert_ns":          float64(insNS) / n,
		"tcam.delete_ns":          float64(delNS) / n,
	}
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int
