// Command benchmark is the repository's one performance benchmark: five
// closed-loop workloads over the flow-mod path and the lookup path, output
// checks, and a traced pass with layer probes. See README.md.
//
// The driver's form measures one workload and prints one JSON object last:
//
//	benchmark --workload fleet_perop --seed 42 --seconds 15 --trace 0
//
// Without --workload it measures every workload untraced, then traced,
// prints every metric, and writes a results file that -compare reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// runner is one workload built from a seed: run does one repetition on
// fresh state (set-up, fixed work, output checks, teardown), recording
// spans when tr is non-nil.
type runner interface {
	run(tr *tracer) (rep, error)
	digest() uint64
}

type workloadDef struct {
	name, why string
	build     func(seed int64, scale float64) (runner, error)
}

var workloads = []workloadDef{
	{"fleet_perop", "per-op controller path: fleet dispatch and one ofwire round trip per flow-mod do the work, core little, batching code is bypassed",
		func(seed int64, scale float64) (runner, error) { return newFleetWL(false, seed, scale) }},
	{"fleet_batch", "same stream through the batching fleet, 256 ops in flight: queue wait, linger, vectored frames and Agent.ApplyBatch dominate",
		func(seed int64, scale float64) (runner, error) { return newFleetWL(true, seed, scale) }},
	{"gatekeeper_overlap", "nested rules into one agent in virtual time, rate limit on: partitioning, TCAM shifts and migration do all the work, the wire none",
		func(seed int64, scale float64) (runner, error) { return newGateWL(seed, scale), nil }},
	{"lookup_churn", "Agent.Lookup beside count-coupled writes: a read gain paid for by writers, or a write gain that stalls readers, shows only here",
		func(seed int64, scale float64) (runner, error) { return newLookupWL(false, seed, scale) }},
	{"cache_zipf", "Agent.Lookup through rulecache tiers at 10% capacity: cover rules, promotion policy and rebalance cost are on the measured path",
		func(seed int64, scale float64) (runner, error) { return newLookupWL(true, seed, scale) }},
}

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, defined on every
// workload: the primary op is a confirmed flow-mod on the first three
// workloads and a packet lookup on the last two. The primary op's p99 is
// measured too but reported per layer (bench.latency_p99_us): on a shared
// VM its run-to-run spread is twice the median's, too wide to bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_kops", "kops/s"},
	{"latency_p50_us", "us"},
	{"heap_mb", "MB"},
}

// perLayer are the traced pass's metrics, <module>.<name>.
var perLayer = []metricDef{
	{"fleet.perop_self_us", "us"}, {"fleet.frames_per_kop", "count"},
	{"fleet.prewire_wait_us", "us"}, {"fleet.postwire_us", "us"}, {"fleet.batch_fill_frac", "frac"},
	{"fleet.ops_failed", "count"}, {"fleet.retries", "count"}, {"fleet.breaker_trips", "count"},
	{"ofwire.perop_rtt_p50_us", "us"}, {"ofwire.perop_rtt_p99_us", "us"},
	{"ofwire.server_handle_us", "us"}, {"ofwire.loopback_us", "us"},
	{"ofwire.encode_ns_per_op", "ns"}, {"ofwire.decode_ns_per_op", "ns"}, {"ofwire.allocs_per_msg", "count"},
	{"ofwire.batch_rtt_us", "us"}, {"ofwire.batch64_rtt_us_per_op", "us"}, {"ofwire.server_handle_batch_us_per_op", "us"},
	{"ofwire.encode_batch_ns_per_op", "ns"}, {"ofwire.decode_batch_ns_per_op", "ns"},
	{"core.flowmod_us", "us"}, {"core.batch_us_per_op", "us"},
	{"core.overlap_insert_p50_us", "us"}, {"core.overlap_insert_p99_us", "us"}, {"core.tick_us", "us"},
	{"classifier.partition_ns", "ns"}, {"tcam.insert_ns", "ns"}, {"tcam.delete_ns", "ns"},
	{"core.guarantee_miss_frac", "frac"},
	{"core.path_shadow_frac", "frac"}, {"core.path_main_frac", "frac"}, {"core.path_redundant_frac", "frac"},
	{"core.rate_limited", "count"}, {"core.rules_cut", "count"}, {"core.partitions_installed", "count"},
	{"core.migrations", "count"}, {"tcam.shifts_per_insert", "count"},
	{"core.lookup_quiet_ns", "ns"}, {"classifier.index_lookup_ns", "ns"}, {"tcam.lookup_ns", "ns"},
	{"core.lookup_churn_ns", "ns"}, {"core.lookup_slow_frac", "frac"}, {"classifier.index_build_us", "us"},
	{"core.write_alone_us", "us"}, {"core.write_beside_reads_us", "us"},
	{"rulecache.hw_hit_frac", "frac"}, {"rulecache.rebalance_us", "us"}, {"rulecache.soft_lookup_ns", "ns"},
	{"rulecache.promotions", "count"}, {"rulecache.demotions", "count"}, {"rulecache.cover_installs", "count"},
	{"proc.allocs_per_op", "count"}, {"proc.alloc_bytes_per_op", "B"}, {"proc.gc_pause_ms", "ms"}, {"proc.gc_cycles", "count"},
	{"bench.latency_p99_us", "us"}, {"bench.trace_overhead_frac", "frac"}, {"bench.timer_pair_ns", "ns"}, {"bench.generate_s", "s"},
}

// scaled sizes a piece of work; scale 1 is what the driver measures.
func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

const (
	minReps = 3
	maxReps = 25 // bounds set-up and checking time if the code under test gets much faster
)

// result is one workload measured one way (traced or not).
type result struct {
	Digest    string             `json:"input_digest"`
	GenerateS float64            `json:"generate_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Metrics   map[string]summary `json:"metrics"`
}

// options are the settings every measurement shares.
type options struct {
	seed     int64
	scale    float64
	seconds  float64
	traceDir string
	probes   probeSet // layer probes, run once per process
}

// measure runs one workload: repetitions on fresh state until seconds of
// measured window have accumulated, untraced for the end-to-end metrics;
// or, traced, alternating untraced and traced repetitions and then the
// layer probes for the per-layer metrics. A failed output check makes the
// result incorrect and is returned as the error.
func measure(def workloadDef, opt *options, traced bool) (*result, error) {
	t0 := nowNS()
	w, err := def.build(opt.seed, opt.scale)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", def.name, err)
	}
	res := &result{Digest: fmt.Sprintf("%016x", w.digest()), GenerateS: float64(nowNS()-t0) / 1e9}
	if v, ok := w.(interface{ verifyTwin() error }); ok {
		if err := v.verifyTwin(); err != nil {
			return res, fmt.Errorf("%s: %w", def.name, err)
		}
	}

	var plain, withTrace []rep
	var tr *tracer
	var measured float64
	for n := 0; n < maxReps && (n < minReps || measured < opt.seconds); n++ {
		var r rep
		if traced && n%2 == 1 {
			tr = &tracer{}
			r, err = w.run(tr)
			withTrace = append(withTrace, r)
		} else {
			r, err = w.run(nil)
			plain = append(plain, r)
		}
		res.Attempted, res.Failed = res.Attempted+r.Attempted, res.Failed+r.Failed
		if err != nil {
			return res, fmt.Errorf("%s: rep %d: %w", def.name, n, err)
		}
		if first := plain[0].Exact; r.Exact != first {
			return res, fmt.Errorf("%s: rep %d: model-time counters differ between repetitions:\n%s\n%s", def.name, n, first, r.Exact)
		}
		measured += r.WallS
	}
	if res.Failed != 0 {
		return res, fmt.Errorf("%s: %d of %d ops failed", def.name, res.Failed, res.Attempted)
	}
	res.Correct = true
	col := func(reps []rep, f func(*rep) float64) []float64 {
		out := make([]float64, len(reps))
		for i := range reps {
			out[i] = f(&reps[i])
		}
		return out
	}
	if !traced {
		samples := plain[0].Samples
		res.Metrics = map[string]summary{
			"setup_s":         summarize("s", col(plain, func(r *rep) float64 { return r.SetupS }), 1),
			"throughput_kops": summarize("kops/s", col(plain, (*rep).kops), 1),
			"latency_p50_us":  summarize("us", col(plain, func(r *rep) float64 { return r.P50us }), samples),
			"heap_mb":         summarize("MB", col(plain, func(r *rep) float64 { return r.HeapMB }), 1),
		}
		return res, nil
	}

	if opt.probes == nil {
		if opt.probes, err = layerProbes(opt.seed, opt.scale); err != nil {
			return res, err
		}
	}
	layers := probeSet{}
	for k, v := range opt.probes {
		layers[k] = v
	}
	// The workload's own layers come from its full-size traced reps.
	own := probeSet{}
	for i := range withTrace {
		own.add(withTrace[i].Layer)
	}
	for k, v := range own {
		layers[k] = v
	}
	layers["proc.allocs_per_op"] = col(plain, func(r *rep) float64 { return r.AllocsPerOp })
	layers["proc.alloc_bytes_per_op"] = col(plain, func(r *rep) float64 { return r.BytesPerOp })
	layers["proc.gc_pause_ms"] = col(plain, func(r *rep) float64 { return r.GCPauseMS })
	layers["proc.gc_cycles"] = col(plain, func(r *rep) float64 { return r.GCCycles })
	layers["bench.latency_p99_us"] = col(plain, func(r *rep) float64 { return r.P99us })
	layers["bench.generate_s"] = []float64{res.GenerateS}
	layers["bench.trace_overhead_frac"] = []float64{1 - median(col(withTrace, (*rep).kops))/median(col(plain, (*rep).kops))}
	layers["fleet.perop_self_us"] = []float64{median(layers["fleet.perop_p50_us"]) - median(layers["ofwire.perop_rtt_p50_us"])}
	res.Metrics = make(map[string]summary)
	for _, m := range perLayer {
		vals, ok := layers[m.name]
		if !ok {
			return res, fmt.Errorf("%s: no layer measured %s", def.name, m.name)
		}
		res.Metrics[m.name] = summarize(m.unit, vals, 1)
	}
	printSelfTimes(def.name, tr)
	if opt.traceDir != "" {
		if err := tr.write(filepath.Join(opt.traceDir, def.name+".json")); err != nil {
			return res, err
		}
	}
	return res, nil
}

// printSelfTimes prints, from the last traced repetition's spans, each
// layer's mean self time: its spans minus what their children cover. The
// children of a flowmod root sum, with the root's own self time, to the
// mean flow-mod latency.
func printSelfTimes(name string, tr *tracer) {
	count, mean := tr.selfTimes()
	names := make([]string, 0, len(count))
	for n := range count {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: mean span self time, last traced repetition\n", name)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-24s %8d spans %12.3f us\n", n, count[n], mean[n]/1e3)
	}
}

func printMetrics(w *os.File, workload string, defs []metricDef, m map[string]summary) {
	fmt.Fprintf(w, "%-20s %-38s %-7s %14s %14s %14s %5s %8s\n", "workload", "metric", "unit", "median", "min", "max", "reps", "samples")
	for _, d := range defs {
		s := m[d.name]
		fmt.Fprintf(w, "%-20s %-38s %-7s %14.6g %14.6g %14.6g %5d %8d\n", workload, d.name, s.Unit, s.Median, s.Min, s.Max, s.Reps, s.Samples)
	}
}

// driverLine is the one JSON object the driver reads from the last line.
func driverLine(res *result, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(1, res.Attempted), res.Failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{res.Metrics[d.name].Median, d.unit}
	}
	b, err := json.Marshal(out) // fails on a NaN or infinite value
	return string(b), err
}

// machine is the reproducibility stamp of a results file.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func stamp() machine {
	m := machine{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// results is the file the full run writes and -compare reads.
type results struct {
	Seed     int64              `json:"seed"`
	Scale    float64            `json:"scale"`
	Machine  machine            `json:"machine"`
	EndToEnd map[string]*result `json:"end_to_end"`
	PerLayer map[string]*result `json:"per_layer"`
}

func main() {
	if err := realMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "measure this one workload and print the driver's JSON line (default: all, with a results file)")
		seed     = fs.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 15, "measured window to accumulate per workload; repetitions are fixed work")
		trace    = fs.Int("trace", 0, "with -workload: 1 runs the traced pass and reports the per-layer metrics")
		quick    = fs.Bool("quick", false, "smoke run: every workload at 1% size, three repetitions")
		out      = fs.String("out", ".bench_build/results.json", "results file of a full run")
		compare  = fs.Bool("compare", false, "compare two results files (args: a.json b.json) under BENCHMARK.json's bounds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two results files")
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	opt := &options{seed: *seed, scale: 1, seconds: *seconds, traceDir: ".bench_build/trace"}
	if *quick {
		opt.scale, opt.seconds = 0.01, 0
	}
	fmt.Fprintf(os.Stderr, "benchmark: seed %d, scale %g, %+v\n", opt.seed, opt.scale, stamp())

	if *workload != "" {
		for _, def := range workloads {
			if def.name != *workload {
				continue
			}
			defs := endToEnd
			if *trace == 1 {
				defs = perLayer
			}
			res, err := measure(def, opt, *trace == 1)
			if err != nil {
				return err
			}
			line, err := driverLine(res, defs)
			if err != nil {
				return err
			}
			printMetrics(os.Stdout, def.name, defs, res.Metrics)
			fmt.Println(line)
			return nil
		}
		return fmt.Errorf("unknown workload %q", *workload)
	}

	all := results{Seed: opt.seed, Scale: opt.scale, Machine: stamp(), EndToEnd: map[string]*result{}, PerLayer: map[string]*result{}}
	var failed []error
	for _, traced := range []bool{false, true} {
		for _, def := range workloads {
			res, err := measure(def, opt, traced)
			if err != nil {
				failed = append(failed, err)
				fmt.Fprintln(os.Stderr, "benchmark:", err)
			}
			if res == nil || res.Metrics == nil {
				continue
			}
			if traced {
				all.PerLayer[def.name] = res
				printMetrics(os.Stdout, def.name, perLayer, res.Metrics)
			} else {
				all.EndToEnd[def.name] = res
				printMetrics(os.Stdout, def.name, endToEnd, res.Metrics)
				fmt.Printf("%-20s %-38s %-7s %14g\n", def.name, "fail_frac", "frac", float64(res.Failed)/float64(res.Attempted))
			}
		}
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "benchmark: results written to", *out)
	return errors.Join(failed...)
}
