package main

import (
	"fmt"
	"sort"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/rulecache"
	"hermes/internal/tcam"
	"hermes/internal/workload"
)

const (
	lookupRules    = 2000
	lookupTimeEach = 64        // every 64th lookup is timed
	lookupSlowNS   = 2000      // a sampled lookup slower than this left the snapshot fast path
	pktMask        = 1<<20 - 1 // the packet sequence is 2^20 long and cycled

	churnWriteEvery = 2048 // lookup_churn: lookups per write
	churnTickEvery  = 20   // writes per Rule Manager tick
	writeStep       = 500 * time.Microsecond

	cacheTickEvery  = 2000  // cache_zipf: lookups per tick (rebalance)
	cacheScanEvery  = 10000 // lookups per cold scan
	cacheScanLen    = 1000  // sequential rules one cold scan touches
	cacheWriteEvery = 20480 // lookups per cold-half write
)

// lookupWL is lookup_churn (cached false) or cache_zipf (cached true): one
// agent preloaded with nested rules, Zipf packets over them, and writes
// cycling through the cold half of the rule set.
type lookupWL struct {
	cached  bool
	rules   []workload.TimedRule // rank order: rule 0 is the most popular
	addr    []uint32             // a packet inside each rule's prefix
	pkts    []uint16             // rule rank of each packet, Zipf s=1.1
	warm, n int                  // warm-up lookups inside set-up, measured lookups
	dig     uint64
	lat     []int64
	want    []verdict // what every rule's packet must resolve to after the writes
}

// verdict is a lookup outcome reduced to what two equivalent classifiers
// must agree on.
type verdict struct {
	ok     bool
	prio   int32
	action classifier.Action
}

func verdictOf(r classifier.Rule, ok bool) verdict { return verdict{ok, r.Priority, r.Action} }

func newLookupWL(cached bool, seed int64, scale float64) (*lookupWL, error) {
	w := &lookupWL{cached: cached, warm: scaled(200_000, scale), n: scaled(5_000_000, scale)}
	if cached {
		// A tick (rebalance) every 2000 lookups costs far more than the
		// lookups between two of them, so the same wall time fits fewer.
		w.warm, w.n = scaled(300_000, scale), scaled(1_800_000, scale)
	}

	w.lat = make([]int64, 0, (w.n+w.n/cacheScanEvery*cacheScanLen)/lookupTimeEach+1)
	w.rules = nestedRules(1<<32, lookupRules, 0.3, workload.SubStream(seed, 3).Uint32())
	w.dig = digestRules(fnvOffset, w.rules)
	w.addr = make([]uint32, len(w.rules))
	for i, tr := range w.rules {
		w.addr[i] = tr.Rule.Match.Dst.Addr | 1
	}
	zipf := workload.NewZipf(workload.SubStream(seed, 4), 1.1, 1, lookupRules)
	w.pkts = make([]uint16, pktMask+1)
	for i := range w.pkts {
		w.pkts[i] = uint16(zipf.Next())
		w.dig = fnvMix(w.dig, uint64(w.pkts[i]))
	}

	// The reference: a linear-scan, uncached twin fed the same writes.
	twin, clk, err := w.newAgent(core.Config{LinearLookup: true, DisableRateLimit: true})
	if err != nil {
		return nil, err
	}
	for j := 0; j < w.writes(); j++ {
		if err := w.write(twin, clk, j); err != nil {
			return nil, fmt.Errorf("twin write %d: %w", j, err)
		}
	}
	w.want = make([]verdict, len(w.addr))
	for i, dst := range w.addr {
		w.want[i] = verdictOf(twin.Lookup(dst, 0))
	}
	return w, nil
}

func (w *lookupWL) digest() uint64 { return w.dig }

// writes is how many writes one rep applies, warm-up included.
func (w *lookupWL) writes() int {
	if w.cached {
		return (w.warm + w.n) / cacheWriteEvery
	}
	return w.n / churnWriteEvery
}

// lookupClock is one agent's virtual time.
type lookupClock struct {
	now    time.Duration
	writes int
}

// newAgent builds an agent and preloads the rule set at the stream's own
// virtual times, ticking the Rule Manager, so rules reach the main table
// the way they would in service.
func (w *lookupWL) newAgent(cfg core.Config) (*core.Agent, *lookupClock, error) {
	cfg.Guarantee = 5 * time.Millisecond
	a, err := core.New(tcam.NewSwitch("lookup", tcam.Pica8P3290), cfg)
	if err != nil {
		return nil, nil, err
	}
	clk := &lookupClock{}
	next := gateTick
	for _, tr := range w.rules {
		for ; next <= tr.At; next += gateTick {
			tickAgent(a, next)
		}
		if _, err := a.Insert(tr.At, tr.Rule); err != nil {
			return nil, nil, fmt.Errorf("preload rule %d: %w", tr.Rule.ID, err)
		}
		clk.now = tr.At
	}
	clk.now += gateTick
	tickAgent(a, clk.now)
	return a, clk, nil
}

func tickAgent(a *core.Agent, now time.Duration) {
	if end := a.Tick(now); end != 0 {
		a.Advance(end)
	}
}

// write applies write j: even writes delete a cold-half rule, odd writes
// put it back, cycling through the cold half. Virtual time moves 500 µs
// per write; lookup_churn also ticks every churnTickEvery writes
// (cache_zipf ticks by lookup count instead).
func (w *lookupWL) write(a *core.Agent, clk *lookupClock, j int) error {
	half := len(w.rules) / 2
	rule := w.rules[half+(j/2)%half].Rule
	clk.now += writeStep
	var err error
	if j%2 == 0 {
		_, err = a.Delete(clk.now, rule.ID)
	} else {
		_, err = a.Insert(clk.now, rule)
	}
	clk.writes++
	if !w.cached && clk.writes%churnTickEvery == 0 {
		tickAgent(a, clk.now)
	}
	return err
}

// reader is the measured lookup loop's state.
type reader struct {
	w       *lookupWL
	a       *core.Agent
	tr      *tracer
	lat     []int64
	lookups int // lookups issued, cold scans included
	failed  int // never-churned rules that missed
	pos     int // position in the packet sequence
}

// lookup resolves the packet of rule rank, timing every 64th call.
func (rd *reader) lookup(rank int) {
	dst := rd.w.addr[rank]
	var r classifier.Rule
	var ok bool
	if rd.lookups%lookupTimeEach == 0 && rd.lat != nil {
		t0 := nowNS()
		r, ok = rd.a.Lookup(dst, 0)
		t1 := nowNS()
		rd.lat = append(rd.lat, t1-t0)
		if len(rd.lat)%sampleEvery == 0 {
			rd.tr.add("core.lookup", uint64(rd.lookups), 0, t0, t1)
		}
	} else {
		r, ok = rd.a.Lookup(dst, 0)
	}
	rd.lookups++
	sink += r.Action.Port
	if !ok && rank < len(rd.w.rules)/2 {
		rd.failed++
	}
}

func (w *lookupWL) run(tr *tracer) (rep, error) {
	var r rep
	t0 := nowNS()
	cfg := core.Config{DisableRateLimit: true}
	if w.cached {
		cfg.Cache = &rulecache.Config{Capacity: lookupRules / 10, Policy: rulecache.PolicyLFU}
	}
	a, clk, err := w.newAgent(cfg)
	if err != nil {
		return r, err
	}
	rd := &reader{w: w, a: a}
	var ticks timed
	if w.cached {
		if err := w.cacheLoop(rd, clk, w.warm, &ticks); err != nil {
			return r, err
		}
	} else {
		for ; rd.pos < w.warm; rd.pos++ { // publishes and warms the lookup snapshot
			rd.lookup(int(w.pkts[rd.pos&pktMask]))
		}
	}
	warmLookups := rd.lookups
	rd.lat, rd.tr = w.lat[:0], tr
	ticks = timed{}
	r.SetupS = float64(nowNS()-t0) / 1e9

	var before rulecache.Snapshot
	if w.cached {
		before = a.CacheStats()
	}
	var writes timed
	win := beginWindow()
	if w.cached {
		err = w.cacheLoop(rd, clk, w.n, &ticks)
	} else {
		writes, err = w.churnLoop(rd, clk)
	}
	if err != nil {
		return r, err
	}
	win.end(&r, rd.lookups-warmLookups)
	r.Attempted, r.Failed = rd.lookups+clk.writes, rd.failed
	slow := 0
	for _, ns := range rd.lat {
		if ns > lookupSlowNS {
			slow++
		}
	}
	r.Layer = map[string]float64{}
	if w.cached {
		after := a.CacheStats()
		r.Layer["rulecache.hw_hit_frac"] = per(float64(after.HWHits-before.HWHits), float64(after.Lookups()-before.Lookups()))
		r.Layer["rulecache.promotions"] = float64(after.Promotions - before.Promotions)
		r.Layer["rulecache.demotions"] = float64(after.Demotions - before.Demotions)
		r.Layer["rulecache.cover_installs"] = float64(after.CoverInstalls - before.CoverInstalls)
		r.Layer["rulecache.rebalance_us"] = per(float64(ticks.ns), float64(ticks.n)) / 1e3
	} else {
		r.Layer["core.lookup_churn_ns"] = r.WallS * 1e9 / float64(r.Ops)
		r.Layer["core.lookup_slow_frac"] = per(float64(slow), float64(len(rd.lat)))
		r.Layer["core.write_beside_reads_us"] = per(float64(writes.ns), float64(writes.n)) / 1e3
	}
	r.setLatency(rd.lat)

	if clk.writes != w.writes() {
		return r, fmt.Errorf("applied %d writes, the input fixes %d", clk.writes, w.writes())
	}
	for i, dst := range w.addr {
		if got := verdictOf(a.Lookup(dst, 0)); got != w.want[i] {
			return r, fmt.Errorf("packet of rule %d resolves to %+v, the linear twin says %+v", w.rules[i].Rule.ID, got, w.want[i])
		}
	}
	return r, nil
}

// timed counts calls and their total wall time.
type timed struct {
	n  int
	ns int64
}

// churnLoop runs the measured lookups on this goroutine while a second
// goroutine applies one write per churnWriteEvery lookups. The reader
// signals by count, never by clock, so the agent goes through the same
// sequence of states in every run.
func (w *lookupWL) churnLoop(rd *reader, clk *lookupClock) (timed, error) {
	// The buffer lets the reader run ahead of a slow write instead of
	// stalling on it; 64 writes is far more lag than a write ever builds.
	tokens := make(chan struct{}, 64)
	type result struct {
		st  timed
		err error
	}
	done := make(chan result, 1)
	go func() {
		var res result
		j := clk.writes
		for range tokens {
			t0 := nowNS()
			err := w.write(rd.a, clk, j)
			t1 := nowNS()
			res.st.n, res.st.ns = res.st.n+1, res.st.ns+t1-t0
			if res.st.n%sampleEvery == 0 {
				rd.tr.add("core.write", uint64(j), 0, t0, t1)
			}
			if err != nil && res.err == nil {
				res.err = fmt.Errorf("write %d: %w", j, err)
			}
			j++
		}
		done <- res
	}()
	for i := 0; i < w.n; i++ {
		rd.lookup(int(w.pkts[rd.pos&pktMask]))
		rd.pos++
		if (i+1)%churnWriteEvery == 0 {
			tokens <- struct{}{}
		}
	}
	close(tokens)
	res := <-done
	return res.st, res.err
}

// cacheLoop serves n Zipf lookups from one goroutine with the cache
// experiment's mix: a tick (rebalance) every 2000 lookups, a 1000-rule
// sequential cold scan every 10000, a cold-half write every 20480.
func (w *lookupWL) cacheLoop(rd *reader, clk *lookupClock, n int, ticks *timed) error {
	for i := 0; i < n; i++ {
		rd.lookup(int(w.pkts[rd.pos&pktMask]))
		rd.pos++
		if rd.pos%cacheScanEvery == 0 {
			from := rd.pos / cacheScanEvery * cacheScanLen
			for j := 0; j < cacheScanLen; j++ {
				rd.lookup((from + j) % len(w.rules))
			}
		}
		if rd.pos%cacheTickEvery == 0 {
			clk.now += gateTick
			t0 := nowNS()
			tickAgent(rd.a, clk.now)
			t1 := nowNS()
			ticks.n, ticks.ns = ticks.n+1, ticks.ns+t1-t0
			if ticks.n%sampleEvery == 0 {
				rd.tr.add("rulecache.rebalance", uint64(ticks.n), 0, t0, t1)
			}
		}
		if rd.pos%cacheWriteEvery == 0 {
			if err := w.write(rd.a, clk, clk.writes); err != nil {
				return fmt.Errorf("write %d: %w", clk.writes, err)
			}
		}
	}
	return nil
}

// lookupProbes times the layers under Agent.Lookup directly, on the
// workload's own rules and packets: the quiescent agent, the immutable
// classifier.RuleIndex it publishes (and the cost of building one), the
// tcam.Table lookup behind the locked fallback, the rulecache.SoftTable,
// and the write sequence with no reader beside it.
func (w *lookupWL) lookupProbes() (map[string]float64, error) {
	n := w.n
	a, clk, err := w.newAgent(core.Config{DisableRateLimit: true})
	if err != nil {
		return nil, err
	}
	rules := make([]classifier.Rule, len(w.rules))
	for i, tr := range w.rules {
		rules[i] = tr.Rule
	}
	// First-match order: priority descending, insertion order within one.
	sort.SliceStable(rules, func(i, j int) bool { return rules[i].Priority > rules[j].Priority })
	t0 := nowNS()
	ix := classifier.NewRuleIndex(rules)
	buildNS := nowNS() - t0
	table := tcam.NewTable("probe", tcam.Pica8P3290.Capacity, tcam.Pica8P3290)
	soft := rulecache.NewSoftTable(rulecache.SoftProfile{})
	for i, tr := range w.rules {
		if _, err := table.Insert(tr.Rule); err != nil {
			return nil, err
		}
		soft.Insert(tr.Rule, uint64(i))
	}
	per := func(lookup func(dst, src uint32) (classifier.Rule, bool)) float64 {
		for i := 0; i < 4096; i++ {
			lookup(w.addr[w.pkts[i]], 0)
		}
		t0 := nowNS()
		for i := 0; i < n; i++ {
			r, _ := lookup(w.addr[w.pkts[i&pktMask]], 0)
			sink += r.Action.Port
		}
		return float64(nowNS()-t0) / float64(n)
	}
	out := map[string]float64{
		"core.lookup_quiet_ns":       per(a.Lookup),
		"classifier.index_lookup_ns": per(ix.Lookup),
		"tcam.lookup_ns":             per(table.Lookup),
		"rulecache.soft_lookup_ns":   per(soft.Lookup),
		"classifier.index_build_us":  float64(buildNS) / 1e3,
	}
	writes := max(2, n/churnWriteEvery)
	t0 = nowNS()
	for j := 0; j < writes; j++ {
		if err := w.write(a, clk, j); err != nil {
			return nil, err
		}
	}
	out["core.write_alone_us"] = float64(nowNS()-t0) / float64(writes) / 1e3
	return out, nil
}
