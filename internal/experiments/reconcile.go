package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/faultinject"
	"hermes/internal/intent"
	"hermes/internal/obs"
	"hermes/internal/sim"
	"hermes/internal/stats"
)

// The reconcile chaos harness: the level-triggered intent reconciler
// driven entirely in virtual time against a simulated fleet, under every
// fault class the real one faces — switch crashes (tables wiped, channel
// down), silent truncations (nothing flags them; only the resync sweep
// can), channel resets (one transient failure plus a reconnect trigger),
// bidirectional partitions (every observe/apply blackholed until the
// heal), desired-set churn throughout, and a controller-replica crash
// with lease-based takeover halfway in. The verdict checks the
// self-healing contract end to end: after the final resync sweep every
// switch must sit at zero diff against the desired store at its latest
// generation, and the same seed must reproduce both replicas' trace
// digests — same triggers, same requeues, same handoffs, same instants.

var errSimPartitioned = errors.New("sim: channel partitioned")
var errSimReset = errors.New("sim: channel reset")

// simSwitch is one simulated switch: an in-memory rule table plus
// virtual-time fault state.
type simSwitch struct {
	rules     map[classifier.RuleID]classifier.Rule
	downUntil time.Duration // crashed: not Ready, tables already wiped
	partUntil time.Duration // partitioned: observe/apply blackholed
	resetNext bool          // next observe/apply fails once
}

// simFleet implements intent.Target over simSwitches on a virtual clock.
type simFleet struct {
	clk *sim.Engine
	sw  map[string]*simSwitch
}

func newSimFleet(clk *sim.Engine, names []string) *simFleet {
	f := &simFleet{clk: clk, sw: make(map[string]*simSwitch, len(names))}
	for _, n := range names {
		f.sw[n] = &simSwitch{rules: make(map[classifier.RuleID]classifier.Rule)}
	}
	return f
}

func (f *simFleet) Ready(name string) bool {
	return f.clk.Now() >= f.sw[name].downUntil
}

// fault returns the channel-level error for one RPC attempt, consuming a
// pending reset.
func (f *simFleet) fault(s *simSwitch) error {
	if f.clk.Now() < s.partUntil {
		return errSimPartitioned
	}
	if s.resetNext {
		s.resetNext = false
		return errSimReset
	}
	return nil
}

func (f *simFleet) Observe(name string) ([]classifier.Rule, error) {
	s := f.sw[name]
	if err := f.fault(s); err != nil {
		return nil, err
	}
	out := make([]classifier.Rule, 0, len(s.rules))
	for _, r := range s.rules {
		out = append(out, r)
	}
	return out, nil
}

// Apply runs the plan one RPC per op, as a serial controller would: each
// op meets the channel's fault state on its own.
func (f *simFleet) Apply(name string, plan []intent.Op) error {
	s := f.sw[name]
	for _, op := range plan {
		if err := f.fault(s); err != nil {
			return err
		}
		switch op.Kind {
		case intent.OpInsert, intent.OpModify:
			s.rules[op.Rule.ID] = op.Rule
		case intent.OpDelete:
			delete(s.rules, op.Rule.ID)
		}
	}
	return nil
}

// crash wipes the switch and takes it down until heal.
func (s *simSwitch) crash(until time.Duration) {
	s.rules = make(map[classifier.RuleID]classifier.Rule)
	if until > s.downUntil {
		s.downUntil = until
	}
}

// truncate silently keeps only the first keep rules by ascending ID — the
// fault no trigger ever reports.
func (s *simSwitch) truncate(keep int) {
	ids := make([]classifier.RuleID, 0, len(s.rules))
	for id := range s.rules {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		if i >= keep {
			delete(s.rules, id)
		}
	}
}

// reconcileVerdict is the comparable outcome of one seeded run; equal
// seeds must produce equal verdicts AND equal trace digests. Traced is
// false when either replica's tracer wrapped, so its digest covers only
// a tail of the run and cannot vouch for a replay.
type reconcileVerdict struct {
	Seed        int64
	Mutations   int
	Crashes     int
	Truncations int
	Resets      int
	Partitions  int
	Converges   int
	Requeues    int
	Takeovers   int
	Generation  uint64
	FinalDiff   int
	Converged   bool
	DigestA     uint64
	DigestB     uint64
	Traced      bool
}

// tlEvent is one scheduled harness action on the virtual timeline.
type tlEvent struct {
	at    time.Duration
	apply func()
}

// runReconcileSeed replays one seeded chaos schedule against a fresh
// store, simulated fleet, and two controller replicas, and returns the
// verdict. Everything runs on one goroutine over a virtual clock, so two
// calls with the same arguments must return identical verdicts and
// digests.
func runReconcileSeed(seed int64, muts int) reconcileVerdict {
	const (
		nSw     = 6
		shards  = 3
		horizon = 8 * time.Second
		ttl     = 250 * time.Millisecond
		downFor = horizon / 20
	)
	failAt := horizon / 2 // replica A crashes here
	v := reconcileVerdict{Seed: seed, Mutations: muts}

	clk := sim.New()
	names := make([]string, nSw)
	for i := range names {
		names[i] = fmt.Sprintf("sw-%d", i)
	}
	fleet := newSimFleet(clk, names)
	store := intent.NewStore(func(id classifier.RuleID) string {
		return names[uint64(id)%nSw]
	})
	leases := intent.NewLeaseTable(ttl)
	// One ring per replica. A replica records ~180 events plus ~1.5 per
	// mutation (at most 278 over the 40 CLI seeds at 60 mutations), so
	// this leaves room several times over; a ring that wraps fails replay.
	traceA, traceB := obs.NewTracer(256+16*muts, 4), obs.NewTracer(256+16*muts, 4)
	mk := func(id string, tr *obs.Tracer) *intent.Controller {
		c, err := intent.New(intent.Config{
			Switches: names,
			Shards:   shards,
			ID:       id,
			Store:    store,
			Target:   fleet,
			Now:      clk.Now,
			After:    func(d time.Duration, fn func()) { clk.After(d, func(time.Duration) { fn() }) },
			Seed:     seed,
			Leases:   leases,
			Trace:    tr,
			RateLimit: intent.RateLimit{Base: 10 * time.Millisecond,
				Max: 200 * time.Millisecond, Multiplier: 2, Jitter: 0.2},
		})
		if err != nil {
			panic(err) // config is static; a failure here is a harness bug
		}
		return c
	}
	a, b := mk("ctrl-a", traceA), mk("ctrl-b", traceB)
	both := func(fn func(c *intent.Controller)) { fn(a); fn(b) }

	// Build the timeline: desired churn, switch faults, channel faults,
	// and resync ticks, all seeded.
	var tl []tlEvent
	rng := rand.New(rand.NewSource(seed))
	nextID := func() classifier.RuleID { return classifier.RuleID(rng.Intn(150) + 1) }
	for i := 0; i < muts; i++ {
		at := time.Duration(rng.Int63n(int64(horizon)))
		if rng.Intn(100) < 65 {
			r := classifier.Rule{
				ID:       nextID(),
				Match:    classifier.DstMatch(classifier.NewPrefix(0x0A000000|rng.Uint32()&0x00FFFF00, uint8(16+rng.Intn(13)))),
				Priority: int32(rng.Intn(100) + 1),
				Action:   classifier.Action{Type: classifier.ActionForward, Port: rng.Intn(48)},
			}
			tl = append(tl, tlEvent{at, func() { store.Set(r) }})
		} else {
			id := nextID()
			tl = append(tl, tlEvent{at, func() { store.Delete(id) }})
		}
	}
	maxHeal := horizon
	for i, name := range names {
		sw := fleet.sw[name]
		name := name
		for _, ev := range faultinject.SwitchSchedule(seed+int64(i)*101, horizon, 2) {
			switch ev.Kind {
			case faultinject.EventCrash:
				v.Crashes++
				heal := ev.At + downFor
				if heal > maxHeal {
					maxHeal = heal
				}
				tl = append(tl, tlEvent{ev.At, func() { sw.crash(heal) }})
				// The reconnect trigger: the channel comes back after the
				// restart and both replicas' fleet hooks fire.
				tl = append(tl, tlEvent{heal, func() {
					both(func(c *intent.Controller) { c.MarkDirty(name, intent.DirtyReconnect) })
				}})
			case faultinject.EventTruncateShadow:
				v.Truncations++
				keep := ev.Arg
				tl = append(tl, tlEvent{ev.At, func() { sw.truncate(keep) }})
			}
		}
		for _, ev := range faultinject.ChannelSchedule(seed+int64(i)*101, horizon, 3) {
			switch ev.Kind {
			case faultinject.ChannelReset:
				v.Resets++
				tl = append(tl, tlEvent{ev.At, func() {
					sw.resetNext = true
					both(func(c *intent.Controller) { c.MarkDirty(name, intent.DirtyReconnect) })
				}})
			case faultinject.ChannelPartition:
				v.Partitions++
				heal := ev.HealAt()
				if heal > maxHeal {
					maxHeal = heal
				}
				tl = append(tl, tlEvent{ev.At, func() {
					if heal > sw.partUntil {
						sw.partUntil = heal
					}
					both(func(c *intent.Controller) { c.MarkDirty(name, intent.DirtyFault) })
				}})
			}
		}
	}
	for k := time.Duration(1); k < 8; k++ {
		at := k * horizon / 8
		tl = append(tl, tlEvent{at, func() {
			both(func(c *intent.Controller) { c.MarkAll(intent.DirtyResync) })
		}})
	}
	sort.SliceStable(tl, func(i, j int) bool { return tl[i].at < tl[j].at })

	// Drive: advance to whichever comes first — the next timeline event or
	// the next requeue timer — then let the live replicas drain. A steps
	// until its crash; B steps throughout but holds no lease until A's
	// expires.
	step := func() {
		if clk.Now() < failAt {
			a.RunUntilQuiesced()
		}
		b.RunUntilQuiesced()
	}
	for i, guard := 0, 0; i < len(tl) || func() bool { _, ok := clk.NextAt(); return ok }(); guard++ {
		if guard > 1_000_000 {
			return v // non-terminating schedule: Converged stays false
		}
		next, hasTimer := clk.NextAt()
		if i < len(tl) && (!hasTimer || tl[i].at <= next) {
			clk.AdvanceTo(tl[i].at)
			tl[i].apply()
			i++
		} else {
			clk.AdvanceTo(next)
		}
		step()
	}

	// Final sweep: past every heal and A's lease, one level-triggered
	// resync through B, drained to quiescence.
	clk.AdvanceTo(maxHeal + ttl + time.Millisecond)
	b.MarkAll(intent.DirtyResync)
	for {
		b.RunUntilQuiesced()
		next, ok := clk.NextAt()
		if !ok {
			break
		}
		clk.AdvanceTo(next)
	}

	v.Generation = store.Generation()
	v.Converged = true
	for _, name := range names {
		desired, _ := store.Desired(name)
		observed, err := fleet.Observe(name)
		if err != nil {
			v.Converged = false
			continue
		}
		v.FinalDiff += len(intent.Diff(desired, observed))
		if gen, ok := b.ConvergedGeneration(name); !ok || gen != v.Generation {
			v.Converged = false
		}
	}
	if v.FinalDiff != 0 {
		v.Converged = false
	}
	for _, tr := range []*obs.Tracer{traceA, traceB} {
		for _, e := range tr.Events() {
			switch e.Kind {
			case obs.EvConverge:
				v.Converges++
			case obs.EvRequeue:
				v.Requeues++
			}
		}
	}
	v.Takeovers = int(leases.Transfers())
	var okA, okB bool
	v.DigestA, okA = traceA.Digest()
	v.DigestB, okB = traceB.Digest()
	v.Traced = okA && okB
	return v
}

// Reconcile is the CLI face of the harness: 40 seeds, each run twice so
// the rendered table carries its own replay verdict (verdict equality AND
// trace-digest equality) alongside the zero-diff convergence one. A run
// whose tracer wrapped renders FAILED, a replay that differs DIVERGED.
func Reconcile(scale float64) *Result {
	scale = clampScale(scale)
	seeds := scaleInt(40, scale, 40)
	muts := scaleInt(60, scale, 30)
	res := &Result{ID: "reconcile", Title: "level-triggered reconciler convergence under chaos (intent store, §4.2 self-healing)"}
	tab := &stats.Table{
		Title: fmt.Sprintf("%d seeds × %d mutations, 6 switches / 3 shards / 2 replicas: crash + truncate + reset + partition + churn + failover", seeds, muts),
		Headers: []string{"seed", "muts", "crashes", "truncs", "resets", "parts",
			"converges", "requeues", "takeovers", "gen", "finaldiff", "converged", "replay"},
	}
	clean := true
	for s := 0; s < seeds; s++ {
		seed := int64(211 + 53*s)
		v := runReconcileSeed(seed, muts)
		v2 := runReconcileSeed(seed, muts)
		replay := "ok"
		if !v.Traced || !v2.Traced {
			replay = "FAILED"
		} else if v != v2 {
			replay = "DIVERGED"
		}
		if !v.Converged || replay != "ok" {
			clean = false
		}
		tab.AddRow(fmt.Sprintf("%d", seed), fmt.Sprintf("%d", v.Mutations),
			fmt.Sprintf("%d", v.Crashes), fmt.Sprintf("%d", v.Truncations),
			fmt.Sprintf("%d", v.Resets), fmt.Sprintf("%d", v.Partitions),
			fmt.Sprintf("%d", v.Converges), fmt.Sprintf("%d", v.Requeues),
			fmt.Sprintf("%d", v.Takeovers), fmt.Sprintf("%d", v.Generation),
			fmt.Sprintf("%d", v.FinalDiff), fmt.Sprintf("%v", v.Converged), replay)
	}
	res.Tables = append(res.Tables, tab)
	if clean {
		res.Notes = append(res.Notes,
			"verdict: every seed converged — zero desired-vs-observed diff on every switch at the final store generation, with byte-identical per-seed trace digests across replays")
	} else {
		res.Notes = append(res.Notes,
			"verdict: FAILED — at least one seed ended with a non-zero diff, an uncovered generation, or a wrapped or non-reproducible trace")
	}
	return res
}
