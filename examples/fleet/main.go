// Fleet controller: drive several Hermes agent daemons concurrently.
//
// Spawns three in-process agent servers on loopback TCP ports, then lets
// internal/fleet act as the multi-switch SDN controller: rules route
// consistently to their home switch, each switch's worker keeps multiple
// flow-mods in flight over its pipelined control channel, and a single
// Snapshot merges every agent's counters with fleet-wide latency
// percentiles. Finally one agent is killed to show the circuit breaker
// isolating the failure while the rest of the fleet keeps working.
//
// The controller also serves the always-on observability surface the way
// hermes-fleetd does with -obs-addr: per-switch queue depth, breaker state,
// op counters, and control-channel RTT histograms on /metrics.
//
//	go run ./examples/fleet
package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
	"hermes/internal/fleet"
	"hermes/internal/obs"
	"hermes/internal/ofwire"
	"hermes/internal/tcam"
)

func main() {
	// Switch side: three agent daemons (normally separate hermes-agentd
	// processes on three switches).
	var specs []fleet.SwitchSpec
	var servers []*ofwire.AgentServer
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("tor-%d", i)
		srv, err := ofwire.NewAgentServer(name, tcam.Pica8P3290, core.Config{
			Guarantee:        5 * time.Millisecond,
			DisableRateLimit: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		srv.Logf = func(string, ...interface{}) {}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve(lis) //nolint:errcheck
		defer srv.Close()
		specs = append(specs, fleet.SwitchSpec{ID: name, Addr: lis.Addr().String()})
		servers = append(servers, srv)
	}

	// Controller side: one fleet manager over all three, with its metrics
	// exposed over HTTP (what hermes-fleetd's -obs-addr flag does).
	reg := obs.NewRegistry()
	f, err := fleet.New(fleet.Config{
		ProbeInterval: 20 * time.Millisecond,
		Breaker:       fleet.BreakerConfig{FailureThreshold: 2, OpenTimeout: 200 * time.Millisecond},
		Obs:           reg,
	}, specs)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	obsLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(obsLis, obs.NewMux(reg, nil)) //nolint:errcheck
	fmt.Printf("fleet up: %v — metrics on http://%s/metrics\n", f.Switches(), obsLis.Addr())

	// Install 300 rules, routed by rule ID; the async API keeps every
	// switch's pipeline full.
	var chans []<-chan fleet.OpResult
	for i := 1; i <= 300; i++ {
		r := classifier.Rule{
			ID:       classifier.RuleID(i),
			Match:    classifier.DstMatch(classifier.NewPrefix(uint32(i)<<14|0x0A000000, 26)),
			Priority: int32(i%16 + 1),
			Action:   classifier.Action{Type: classifier.ActionForward, Port: i % 48},
		}
		ch, err := f.InsertRoutedAsync(r)
		if err != nil {
			log.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			log.Fatalf("insert %d on %s: %v", res.RuleID, res.Switch, res.Err)
		}
	}
	if err := f.Barrier(); err != nil {
		log.Fatal(err)
	}

	snap := f.Snapshot()
	fmt.Print(snap.Table().String())
	fmt.Printf("guaranteed p99 across the fleet: %.3fms\n\n", snap.Guaranteed.Quantile(0.99)/1e6)

	// Kill tor-1; its circuit opens and the fleet fails fast on it while
	// the other switches keep accepting flow-mods.
	fmt.Println("killing tor-1 ...")
	servers[1].Close() //nolint:errcheck
	for {
		res := f.Insert("tor-1", classifier.Rule{ID: 1000,
			Match: classifier.DstMatch(classifier.MustParsePrefix("192.168.0.0/16"))})
		var open *fleet.CircuitOpenError
		if errors.As(res.Err, &open) {
			fmt.Printf("tor-1: %v (fail-fast)\n", res.Err)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if res := f.Insert("tor-0", classifier.Rule{ID: 1001,
		Match: classifier.DstMatch(classifier.MustParsePrefix("192.168.0.0/16"))}); res.Err != nil {
		log.Fatal(res.Err)
	}
	fmt.Println("tor-0 still accepting flow-mods — outage contained")

	// Scrape our own /metrics: the breaker trip and the per-switch traffic
	// split are visible to any Prometheus-compatible collector.
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", obsLis.Addr()))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	fmt.Println("\nfleet metrics (breaker + RTT excerpts):")
	for _, line := range strings.Split(string(buf[:n]), "\n") {
		if strings.HasPrefix(line, "hermes_fleet_breaker_state") ||
			strings.HasPrefix(line, "hermes_fleet_ops_ok_total") ||
			strings.HasPrefix(line, "hermes_ofwire_rtt_ns_count") {
			fmt.Println("  " + line)
		}
	}
}
