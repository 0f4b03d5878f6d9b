// Command hermes-fleetd demonstrates the fleet control plane end to end:
// it spawns K in-process Hermes agent daemons (one modeled switch each, as
// cmd/hermes-agentd runs standalone), connects an internal/fleet manager
// to all of them, replays a workload routed consistently across the fleet,
// and prints the aggregated telemetry — ops/sec, per-switch counters, and
// fleet-wide guaranteed-latency percentiles.
//
// The default (imperative) mode is a transport demo: it fires flow-mods and
// keeps no record of them, so a switch that restarts stays empty. With
// -declarative the same workload goes into an intent.Store and the
// reconciler — the only owner of desired state — keeps the fleet matching it.
//
// Usage:
//
//	hermes-fleetd -switches 8 -rules 20000
//	hermes-fleetd -switches 4 -rules 5000 -ratelimit -retry
//	hermes-fleetd -switches 4 -rules 5000 -kill 1   # trip a circuit breaker
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"net/http"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/fleet"
	"hermes/internal/obs"
	"hermes/internal/ofwire"
	"hermes/internal/tcam"
	"hermes/internal/workload"
)

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "hermes-fleetd: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	switches := flag.Int("switches", 4, "number of in-process agent daemons")
	rules := flag.Int("rules", 10000, "flow-mods to replay across the fleet")
	profName := flag.String("switch", "Pica8 P-3290", "switch profile name")
	guarantee := flag.Duration("guarantee", 5*time.Millisecond, "per-switch insertion guarantee")
	overlap := flag.Float64("overlap", 0.2, "workload overlap fraction [0,1]")
	batch := flag.Int("batch", 16, "per-worker dispatch batch size")
	queue := flag.Int("queue", 128, "per-worker queue depth")
	rateLimit := flag.Bool("ratelimit", false, "enable Gate Keeper admission control")
	retry := flag.Bool("retry", false, "retry diverted insertions with backoff")
	kill := flag.Int("kill", -1, "kill this switch index mid-replay (circuit-breaker demo)")
	declarative := flag.Bool("declarative", false,
		"drive the fleet through the intent reconciler instead of imperative replay")
	resync := flag.Duration("resync", 2*time.Second, "declarative-mode periodic resync interval")
	wait := flag.Duration("wait", 15*time.Second, "declarative-mode convergence deadline")
	seed := flag.Int64("seed", 1, "workload and jitter seed")
	obsAddr := flag.String("obs-addr", "",
		"serve fleet /metrics, /debug/vars and /debug/pprof on this address (empty disables)")
	flag.Parse()

	profile, ok := tcam.ProfileByName(*profName)
	if !ok {
		fatalf("unknown switch %q", *profName)
	}
	if *kill >= *switches {
		fatalf("-kill %d out of range for %d switches", *kill, *switches)
	}

	// Switch side: K agent daemons on loopback.
	specs := make([]fleet.SwitchSpec, *switches)
	servers := make([]*ofwire.AgentServer, *switches)
	for i := range specs {
		name := fmt.Sprintf("sw-%d", i)
		srv, err := ofwire.NewAgentServer(name, profile, core.Config{
			Guarantee:        *guarantee,
			DisableRateLimit: !*rateLimit,
		})
		if err != nil {
			fatalf("agent %s: %v", name, err)
		}
		srv.Logf = func(string, ...interface{}) {} // killed-switch noise
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatalf("listen: %v", err)
		}
		go srv.Serve(lis) //nolint:errcheck
		defer srv.Close()
		specs[i] = fleet.SwitchSpec{ID: name, Addr: lis.Addr().String()}
		servers[i] = srv
	}

	// Controller side: the fleet manager, optionally exposed over HTTP.
	var reg *obs.Registry
	if *obsAddr != "" {
		reg = obs.NewRegistry()
	}
	f, err := fleet.New(fleet.Config{
		QueueDepth:    *queue,
		BatchSize:     *batch,
		ProbeInterval: 25 * time.Millisecond,
		Breaker:       fleet.BreakerConfig{FailureThreshold: 3, OpenTimeout: 250 * time.Millisecond},
		RetryDiverted: *retry,
		Seed:          *seed,
		Obs:           reg,
	}, specs)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	if reg != nil {
		obsLis, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			fatalf("obs listener: %v", err)
		}
		go http.Serve(obsLis, obs.NewMux(reg, nil)) //nolint:errcheck
		fmt.Printf("fleet observability on http://%s/metrics\n", obsLis.Addr())
	}
	fmt.Printf("fleet of %d × %s agents up (guarantee %v, batch %d, queue %d)\n",
		*switches, profile.Name, *guarantee, *batch, *queue)

	stream := workload.MicroBench(rand.New(rand.NewSource(*seed)), workload.MicroBenchConfig{
		Rules: *rules, RatePerSec: 1e9, OverlapFrac: *overlap, MaxPriority: 64,
	})

	if *declarative {
		var killFn func()
		if *kill >= 0 {
			killFn = func() {
				fmt.Printf("... killing %s mid-churn\n", specs[*kill].ID)
				servers[*kill].Close() //nolint:errcheck
			}
		}
		runDeclarative(f, reg, stream, *resync, *seed, killFn, *wait)
		return
	}

	// Replay at full speed; a collector drains results as they complete so
	// the whole stream stays in flight against the workers' queues.
	type tally struct{ ok, failed, guaranteed, retried int }
	results := make(chan (<-chan fleet.OpResult), 4*(*queue))
	doneCollect := make(chan tally)
	go func() {
		var tl tally
		for ch := range results {
			res := <-ch
			switch {
			case res.Err != nil:
				tl.failed++
			default:
				tl.ok++
				if res.Result.Guaranteed {
					tl.guaranteed++
				}
				if res.Attempts > 1 {
					tl.retried++
				}
			}
		}
		doneCollect <- tl
	}()

	start := time.Now()
	for i, tr := range stream {
		if *kill >= 0 && i == len(stream)/2 {
			fmt.Printf("... killing %s mid-replay\n", specs[*kill].ID)
			servers[*kill].Close() //nolint:errcheck
		}
		r := tr.Rule
		r.ID = classifier.RuleID(i + 1)
		ch, err := f.InsertRoutedAsync(r)
		if err != nil {
			fatalf("submit: %v", err)
		}
		results <- ch
	}
	close(results)
	tl := <-doneCollect
	if err := f.Barrier(); err != nil {
		fmt.Printf("barrier (expected on a killed switch): %v\n", err)
	}
	elapsed := time.Since(start)

	snap := f.Snapshot()
	fmt.Println()
	fmt.Print(snap.Table().String())
	fmt.Println()
	fmt.Printf("replayed %d flow-mods in %v — %.0f ops/s end-to-end (%d ok, %d failed, %d guaranteed, %d retried)\n",
		len(stream), elapsed.Round(time.Millisecond),
		float64(tl.ok)/elapsed.Seconds(), tl.ok, tl.failed, tl.guaranteed, tl.retried)
	g := snap.Guaranteed
	fmt.Printf("fleet guaranteed latency: p50=%.3fms p95=%.3fms p99=%.3fms over %d samples\n",
		g.Quantile(0.5)/1e6, g.Quantile(0.95)/1e6, g.Quantile(0.99)/1e6, g.Count())
}
