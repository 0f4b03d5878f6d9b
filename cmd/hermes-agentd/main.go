// Command hermes-agentd runs the switch-side Hermes agent as a network
// daemon: it models one switch's TCAM, carves it for the configured
// guarantee, and serves the ofwire control channel (the deployment of the
// paper's Fig. 2, with the modeled ASIC standing in for hardware).
//
// Usage:
//
//	hermes-agentd -listen 127.0.0.1:6653 -switch "Pica8 P-3290" -guarantee 5ms
//
// Pair it with examples/remote-controller, or any program speaking
// internal/ofwire.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hermes/internal/core"
	"hermes/internal/obs"
	"hermes/internal/ofwire"
	"hermes/internal/rulecache"
	"hermes/internal/tcam"
)

// shutdownDrain is how long SIGTERM or SIGINT gives in-flight requests to
// finish and their replies to flush before connections are cut.
const shutdownDrain = 2 * time.Second

func main() {
	listen := flag.String("listen", "127.0.0.1:6653", "address to listen on")
	profName := flag.String("switch", "Pica8 P-3290", "switch profile name")
	guarantee := flag.Duration("guarantee", 5*time.Millisecond, "insertion guarantee")
	name := flag.String("name", "hermes-sw", "switch name")
	rateLimit := flag.Bool("ratelimit", true, "enable Gate Keeper admission control")
	cacheSize := flag.Int("cache", 0,
		"enable the FDRC caching hierarchy with this many hardware-resident rules (0 disables; the software tier below is unbounded)")
	cachePolicy := flag.String("cache-policy", "lfu", "cache promotion policy: lru or lfu")
	obsAddr := flag.String("obs-addr", "",
		"serve /metrics, /debug/vars, /debug/trace and /debug/pprof on this address (empty disables)")
	flag.Parse()

	profile, ok := tcam.ProfileByName(*profName)
	if !ok {
		fmt.Fprintf(os.Stderr, "hermes-agentd: unknown switch %q\n", *profName)
		os.Exit(1)
	}
	var (
		reg      *obs.Registry
		observer *core.Observer
	)
	if *obsAddr != "" {
		reg = obs.NewRegistry()
		observer = core.NewObserver(reg, 4096)
	}
	cfg := core.Config{
		Guarantee:        *guarantee,
		DisableRateLimit: !*rateLimit,
		Observer:         observer,
	}
	if *cacheSize > 0 {
		policy, err := rulecache.ParsePolicy(*cachePolicy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hermes-agentd: %v\n", err)
			os.Exit(1)
		}
		cfg.Cache = &rulecache.Config{Capacity: *cacheSize, Policy: policy}
	}
	srv, err := ofwire.NewAgentServer(*name, profile, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hermes-agentd: %v\n", err)
		os.Exit(1)
	}
	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hermes-agentd: %v\n", err)
		os.Exit(1)
	}
	agent := srv.Agent()
	fmt.Printf("hermes-agentd: %s (%s) on %s — guarantee %v, shadow %d entries (%.1f%% overhead), max rate %.0f rules/s\n",
		*name, profile.Name, lis.Addr(), *guarantee,
		agent.ShadowSize(), agent.OverheadFraction()*100, agent.MaxRate())

	if *cacheSize > 0 {
		fmt.Printf("hermes-agentd: FDRC cache enabled — %d hardware slots, policy %s\n",
			*cacheSize, *cachePolicy)
	}

	if *obsAddr != "" {
		srv.RegisterObs(reg)
		agent.RegisterCacheMetrics(reg) // view tier rebuilds always; hermes_cache_* when -cache is on
		obsLis, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hermes-agentd: obs listener: %v\n", err)
			os.Exit(1)
		}
		go http.Serve(obsLis, obs.NewMux(reg, observer.Tracer)) //nolint:errcheck
		fmt.Printf("hermes-agentd: observability on http://%s/metrics (plus /debug/vars /debug/trace /debug/pprof)\n",
			obsLis.Addr())
	}

	drained := make(chan struct{})
	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		fmt.Println("hermes-agentd: shutting down")
		// Drain, not Close: a flow-mod the agent already applied still gets
		// its reply.
		srv.Shutdown(shutdownDrain) //nolint:errcheck
		close(drained)
	}()
	if err := srv.Serve(lis); err != nil {
		fmt.Fprintf(os.Stderr, "hermes-agentd: %v\n", err)
		os.Exit(1)
	}
	// Serve returns once the listener closes; the drain is still running.
	<-drained
}
