// Command hermes-loadgen is the open-loop load driver: it generates a
// deterministic arrival schedule (millions of flows if asked), replays
// it through a fleet against live Hermes agents — in-process daemons by
// default, or any reachable agent addresses — and renders a
// machine-readable SLO verdict CI can gate on.
//
// The schedule is a pure function of the seed and the shape flags: two
// runs with the same seed replay byte-identical schedules (compare
// -dump-schedule outputs, or the schedule_digest in the verdict). The
// measured outcomes and the verdict's pass bit are then about the target,
// not the generator. The verdict gates on the loss rate and on the rate
// of guarantee violations the agents report per op; round-trip latency is
// the fleet's hermes_ofwire_rtt_ns series on -obs-addr.
//
// Usage:
//
//	hermes-loadgen -flows 100000 -rate 50000 -switches 4
//	hermes-loadgen -flows 1000000 -rate 200000 -hold 20ms -max-loss-rate 0
//	hermes-loadgen -schedule bgp:Equinix-Chicago -max-violation-rate 0.01
//	hermes-loadgen -targets 10.0.0.1:6653,10.0.0.2:6653 -batch
//	hermes-loadgen -flows 1000 -schedule-only -dump-schedule sched.bin
//
// Exit status: 0 when the SLO passes, 1 on breach, 2 on operational
// error.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hermes/internal/bgp"
	"hermes/internal/core"
	"hermes/internal/fleet"
	"hermes/internal/loadgen"
	"hermes/internal/loadgen/driver"
	"hermes/internal/obs"
	"hermes/internal/ofwire"
	"hermes/internal/tcam"
	"hermes/internal/topo"
	"hermes/internal/workload"
)

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "hermes-loadgen: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	// Schedule shape.
	scheduleKind := flag.String("schedule", "synthetic",
		"schedule source: synthetic, bgp:<profile> (see hermes-agentd profiles), shuffle")
	flows := flag.Int("flows", 100000, "flow arrivals to schedule (synthetic)")
	rate := flag.Float64("rate", 50000, "mean arrival rate, flows/second (synthetic)")
	arrival := flag.String("arrival", "poisson", "arrival process: poisson, constant, flash-crowd")
	burstFactor := flag.Float64("burst-factor", 10, "flash-crowd peak rate multiplier")
	distinct := flag.Uint64("distinct", 0, "flow-universe size for Zipf popularity (0: = flows)")
	zipfS := flag.Float64("zipf-s", 1.1, "Zipf skew exponent (>1)")
	hold := flag.Duration("hold", 50*time.Millisecond,
		"rule lifetime before deletion; bounds the installed working set (0 disables deletes)")
	classes := flag.String("classes", "1",
		"comma-separated class weights, e.g. 3,1 = 75% class 0, 25% class 1")
	seed := flag.Int64("seed", 1, "schedule seed; same seed = byte-identical schedule")
	jobs := flag.Int("jobs", 200, "job count for -schedule shuffle")

	// Target.
	switches := flag.Int("switches", 4, "in-process agent daemons to spawn")
	targets := flag.String("targets", "",
		"comma-separated external agent addresses (skips in-process daemons)")
	batch := flag.Bool("batch", false,
		"write each group of flow-mods as one vectored flow-mod-batch frame instead of one flow-mod frame per op")
	batchSize := flag.Int("batch-size", 64, "max flow-mods per wire batch frame (with -batch)")
	batchLinger := flag.Duration("batch-linger", 500*time.Microsecond,
		"how long a non-full batch waits for stragglers while another is in flight (with -batch)")
	profName := flag.String("switch", "Pica8 P-3290", "switch profile for in-process agents")
	guarantee := flag.Duration("guarantee", 5*time.Millisecond, "per-switch insertion guarantee")
	rateLimit := flag.Bool("ratelimit", false, "enable Gate Keeper admission control on in-process agents")

	// Executor.
	queueDepth := flag.Int("queue-depth", 4096,
		"the fleet's per-switch queue depth, which also bounds the run's ops in flight per switch; an op fired at a full switch is shed as lost")
	timeScale := flag.Float64("timescale", 1, "replay speed multiplier (2 = twice as fast)")
	reqTimeout := flag.Duration("request-timeout", 5*time.Second,
		"per-flow-mod deadline before it is abandoned and counted lost")

	// SLO budgets. Negative rates are unchecked.
	maxViolation := flag.Float64("max-violation-rate", -1,
		"max guarantee violations per submitted op (negative: unchecked)")
	maxLoss := flag.Float64("max-loss-rate", -1,
		"max lost ops per submitted op (negative: unchecked)")

	// Output.
	out := flag.String("out", "", "write the verdict JSON here as well as stdout")
	dumpSchedule := flag.String("dump-schedule", "",
		"write the canonical binary schedule here (byte-identical across same-seed runs)")
	scheduleOnly := flag.Bool("schedule-only", false, "generate (and dump) the schedule, don't drive")
	obsAddr := flag.String("obs-addr", "",
		"serve the loadgen ledger and the fleet's per-switch series on /metrics at this address during the run (empty disables)")
	flag.Parse()

	weights, err := parseWeights(*classes)
	if err != nil {
		fatalf("%v", err)
	}

	sched, err := buildSchedule(scheduleSpec{
		kind: *scheduleKind, flows: *flows, rate: *rate, arrival: *arrival,
		burstFactor: *burstFactor, distinct: *distinct, zipfS: *zipfS,
		hold: *hold, weights: weights, seed: *seed, jobs: *jobs,
	})
	if err != nil {
		fatalf("%v", err)
	}
	ins, mods, dels := sched.Counts()
	fmt.Printf("schedule %s: %d events (%d inserts, %d modifies, %d deletes) over %v, digest %016x\n",
		sched.Name, len(sched.Events), ins, mods, dels, sched.Duration().Round(time.Millisecond), sched.Digest())

	if *dumpSchedule != "" {
		if err := os.WriteFile(*dumpSchedule, sched.MarshalBinary(), 0o644); err != nil {
			fatalf("dump schedule: %v", err)
		}
		fmt.Printf("wrote %s\n", *dumpSchedule)
	}
	if *scheduleOnly {
		return
	}

	// Target side: external addresses, or spawn in-process agents.
	addrs := splitList(*targets)
	if len(addrs) == 0 {
		profile, ok := tcam.ProfileByName(*profName)
		if !ok {
			fatalf("unknown switch %q", *profName)
		}
		if *switches <= 0 {
			fatalf("-switches %d, need > 0", *switches)
		}
		for i := 0; i < *switches; i++ {
			name := fmt.Sprintf("sw-%d", i)
			srv, err := ofwire.NewAgentServer(name, profile, core.Config{
				Guarantee:        *guarantee,
				DisableRateLimit: !*rateLimit,
			})
			if err != nil {
				fatalf("agent %s: %v", name, err)
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fatalf("listen: %v", err)
			}
			go srv.Serve(lis) //nolint:errcheck
			defer srv.Close() //nolint:errcheck
			addrs = append(addrs, lis.Addr().String())
		}
		fmt.Printf("spawned %d in-process agents (%s, guarantee %v, ratelimit %v)\n",
			*switches, *profName, *guarantee, *rateLimit)
	}

	led := loadgen.NewLedger(len(weights))
	fcfg := fleetConfig(*batch, *batchSize, *batchLinger, *reqTimeout)
	fcfg.QueueDepth = *queueDepth
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		led.Register(reg)
		fcfg.Obs = reg
		obsLis, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			fatalf("obs listen: %v", err)
		}
		go http.Serve(obsLis, obs.NewMux(reg, nil)) //nolint:errcheck
		fmt.Printf("loadgen metrics on http://%s/metrics\n", obsLis.Addr())
	}
	specs := make([]fleet.SwitchSpec, len(addrs))
	for i, a := range addrs {
		specs[i] = fleet.SwitchSpec{ID: fmt.Sprintf("sw-%d", i), Addr: a}
	}
	f, err := fleet.New(fcfg, specs)
	if err != nil {
		fatalf("fleet: %v", err)
	}
	defer f.Close() //nolint:errcheck
	targetName := "fleet"
	if *batch {
		targetName = "fleet-batch"
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := driver.Run(ctx, sched, f, led, driver.Config{TimeScale: *timeScale})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("replayed %d events in %v: offered %.0f/s, achieved %.0f/s, shed %d, max pacer lag %v\n",
		rep.Events, rep.Wall.Round(time.Millisecond), rep.OfferedRate, rep.AchievedRate,
		rep.Shed, rep.MaxLag.Round(time.Microsecond))

	slo := loadgen.Uniform(len(weights), loadgen.ClassSLO{
		MaxViolationRate: *maxViolation, ViolationRateSet: *maxViolation >= 0,
		MaxLossRate: *maxLoss, LossRateSet: *maxLoss >= 0,
	})
	verdict := loadgen.Evaluate(led, slo, rep.RunInfo(sched, targetName, f.Size()))
	js, err := verdict.JSON()
	if err != nil {
		fatalf("%v", err)
	}
	os.Stdout.Write(js) //nolint:errcheck
	if *out != "" {
		if err := os.WriteFile(*out, js, 0o644); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if !verdict.Pass {
		fmt.Fprintf(os.Stderr, "hermes-loadgen: SLO breached:\n")
		for _, b := range verdict.Breaches {
			fmt.Fprintf(os.Stderr, "  %s\n", b)
		}
		os.Exit(1)
	}
	fmt.Println("SLO met")
}

// fleetConfig is the fleet a run drives: one flow-mod frame per op, or
// flow-mod-batch frames of up to batchSize ops with batch set, and every
// request bounded by reqTimeout.
func fleetConfig(batch bool, batchSize int, batchLinger, reqTimeout time.Duration) fleet.Config {
	cfg := fleet.Config{OpTimeout: reqTimeout}
	if batch {
		cfg.WireBatch, cfg.BatchSize, cfg.BatchLinger = true, batchSize, batchLinger
	}
	return cfg
}

// scheduleSpec bundles the schedule flags.
type scheduleSpec struct {
	kind, arrival      string
	flows, jobs        int
	rate               float64
	burstFactor, zipfS float64
	distinct           uint64
	hold               time.Duration
	weights            []int
	seed               int64
}

func buildSchedule(s scheduleSpec) (*loadgen.Schedule, error) {
	switch {
	case s.kind == "synthetic":
		kind, err := loadgen.ParseArrival(s.arrival)
		if err != nil {
			return nil, err
		}
		return loadgen.Generate(loadgen.Config{
			Flows: s.flows, Rate: s.rate, Arrival: kind, BurstFactor: s.burstFactor,
			Distinct: s.distinct, ZipfS: s.zipfS, Hold: s.hold,
			ClassWeights: s.weights, Seed: s.seed,
		})
	case strings.HasPrefix(s.kind, "bgp:"):
		name := strings.TrimPrefix(s.kind, "bgp:")
		for _, p := range bgp.Profiles() {
			if p.Name == name {
				return loadgen.FromBGP(s.seed, p.Name, p.Cfg, 0), nil
			}
		}
		return nil, fmt.Errorf("unknown BGP profile %q", name)
	case s.kind == "shuffle":
		rng := workload.SubStream(s.seed, 0)
		hosts := make([]topo.NodeID, 64)
		for i := range hosts {
			hosts[i] = topo.NodeID(i)
		}
		js := workload.FacebookJobs(rng, workload.FacebookConfig{
			Jobs: s.jobs, Duration: 30 * time.Second, Hosts: hosts,
		})
		return loadgen.FromJobs(js, s.hold, 0, uint8(len(s.weights)-1), 1), nil
	default:
		return nil, fmt.Errorf("unknown schedule kind %q", s.kind)
	}
}

func parseWeights(s string) ([]int, error) {
	var weights []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad class weight %q", part)
		}
		weights = append(weights, w)
	}
	return weights, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
