// Command varys runs the flow-level network simulator standalone: one
// workload, one topology, one installation strategy, and prints the
// resulting rule-installation, flow-completion and job-completion
// statistics.
//
// Usage:
//
//	varys -topology fattree8 -workload facebook -installer hermes [-jobs N] [-seed S]
//
// Topologies: fattree4, fattree8, fattree16, abilene, geant, quest.
// Installers: zero, direct, espres, tango, hermes.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"hermes/internal/core"
	"hermes/internal/netsim"
	"hermes/internal/stats"
	"hermes/internal/tcam"
	"hermes/internal/topo"
	"hermes/internal/workload"
)

func main() {
	topoName := flag.String("topology", "fattree8", "fattree4|fattree8|fattree16|abilene|geant|quest")
	instName := flag.String("installer", "hermes", "zero|direct|espres|tango|hermes")
	profName := flag.String("switch", "Pica8 P-3290", "switch profile name")
	workloadName := flag.String("workload", "facebook", "facebook|tm (traffic-matrix)")
	jobs := flag.Int("jobs", 400, "number of jobs (facebook workload)")
	seconds := flag.Int("seconds", 30, "trace duration in seconds")
	guarantee := flag.Duration("guarantee", 5*time.Millisecond, "Hermes insertion guarantee")
	prefill := flag.Int("prefill", 300, "background rules per switch")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	g, err := buildTopology(*topoName)
	if err != nil {
		fatal(err)
	}
	profile, ok := tcam.ProfileByName(*profName)
	if !ok {
		fatal(fmt.Errorf("unknown switch profile %q (known: Pica8 P-3290, Dell 8132F, HP 5406zl)", *profName))
	}
	kind, err := parseInstaller(*instName)
	if err != nil {
		fatal(err)
	}

	rng := rand.New(rand.NewSource(*seed))
	var jobTrace []workload.Job
	switch *workloadName {
	case "facebook":
		jobTrace = workload.FacebookJobs(rng, workload.FacebookConfig{
			Jobs:     *jobs,
			Duration: time.Duration(*seconds) * time.Second,
			Hosts:    g.Hosts(),
		})
	case "tm":
		tm := workload.GravityTM(rng, g.Hosts(), 12e9)
		jobTrace = workload.FlowsFromTM(rng, tm, time.Duration(*seconds)*time.Second, 40e6)
	default:
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}

	sim := netsim.New(netsim.Config{
		Graph:        g,
		Profile:      profile,
		Kind:         kind,
		HermesConfig: hermesConfig(*guarantee),
		PrefillRules: *prefill,
		Seed:         *seed,
	})
	start := time.Now()
	m := sim.Run(jobTrace)
	elapsed := time.Since(start)

	fmt.Printf("varys: %s on %s, %s switches (%s installer), %d jobs\n",
		*workloadName, *topoName, profile.Name, kind, len(jobTrace))
	printSummary("rule installation time (ms)", m.RITms)
	printSummary("flow completion time (s)", mapValues(m.FCTs))
	printSummary("job completion time (s)", mapValues(m.JCTs))
	fmt.Printf("TE moves: %d  install errors: %d\n", m.Moves, m.InstallErrors)
	if agents := sim.Agents(); len(agents) > 0 {
		var violations, migrations int
		for _, a := range agents {
			am := a.Metrics()
			violations += am.Violations
			migrations += am.Migrations
		}
		fmt.Printf("hermes: %d agents, %d violations, %d migrations, %.1f%% TCAM overhead\n",
			len(agents), violations, migrations, agents[0].OverheadFraction()*100)
	}
	fmt.Printf("simulated in %v wall-clock\n", elapsed.Round(time.Millisecond))
}

func buildTopology(name string) (*topo.Graph, error) {
	switch name {
	case "fattree4":
		return topo.FatTree(4, 1e9, 10*time.Microsecond), nil
	case "fattree8":
		return topo.FatTree(8, 10e9, 10*time.Microsecond), nil
	case "fattree16":
		return topo.FatTree(16, 40e9, 10*time.Microsecond), nil
	case "abilene":
		return topo.Abilene(), nil
	case "geant":
		return topo.Geant(), nil
	case "quest":
		return topo.Quest(), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}

func parseInstaller(name string) (netsim.InstallerKind, error) {
	switch name {
	case "zero":
		return netsim.InstallZero, nil
	case "direct":
		return netsim.InstallDirect, nil
	case "espres":
		return netsim.InstallESPRES, nil
	case "tango":
		return netsim.InstallTango, nil
	case "hermes":
		return netsim.InstallHermes, nil
	default:
		return 0, fmt.Errorf("unknown installer %q", name)
	}
}

func hermesConfig(guarantee time.Duration) core.Config {
	return core.Config{Guarantee: guarantee}
}

func printSummary(title string, vals []float64) {
	if len(vals) == 0 {
		fmt.Printf("%s: no samples\n", title)
		return
	}
	s := stats.Summarize(vals)
	fmt.Printf("%s: n=%d median=%.3f p95=%.3f p99=%.3f max=%.3f\n",
		title, s.N(), s.Median(), s.P95(), s.P99(), s.Max())
}

func mapValues(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "varys:", err)
	os.Exit(1)
}
