package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestQuick is the -quick smoke: every workload at 1% size, untraced and
// traced, with every output check on. It keeps the harness compiling and
// its checks passing; it measures nothing.
func TestQuick(t *testing.T) {
	opt := &options{seed: 42, scale: 0.01, traceDir: t.TempDir()}
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, def := range workloads {
			res, err := measure(def, opt, traced)
			if err != nil {
				t.Fatalf("traced %v: %v", traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s: correct %v, %d of %d ops failed", def.name, res.Correct, res.Failed, res.Attempted)
			}
			if _, err := driverLine(res, defs); err != nil {
				t.Errorf("%s: result line: %v", def.name, err)
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s: metric %s missing", def.name, d.name)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(opt.traceDir, def.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", def.name, err)
				}
			}
		}
	}
}

// TestSameSeedSameInputs checks that a seed fixes the inputs and that
// another seed changes them.
func TestSameSeedSameInputs(t *testing.T) {
	for _, def := range workloads {
		var digests [3]uint64
		for i, seed := range []int64{7, 7, 8} {
			w, err := def.build(seed, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			digests[i] = w.digest()
		}
		if digests[0] != digests[1] || digests[0] == digests[2] {
			t.Errorf("%s: digests %x for seeds 7, 7, 8", def.name, digests)
		}
	}
}

// TestManifestMatches keeps BENCHMARK.json and the program's own lists of
// workloads and metrics the same.
func TestManifestMatches(t *testing.T) {
	type metric struct{ Name, Unit string }
	var manifest struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the program %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range manifest.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: manifest %v, program %v", kind, i, m, want[i])
			}
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd)
	same("per_layer", manifest.PerLayer, perLayer)
}

// TestCompare runs -compare on a results file against itself and against
// a copy with one metric made a third worse.
func TestCompare(t *testing.T) {
	s := summary{Unit: "x", Median: 100, Min: 98, Max: 103, Reps: 5, Samples: 1}
	base := results{EndToEnd: map[string]*result{}}
	worse := results{EndToEnd: map[string]*result{}}
	for _, def := range workloads {
		a := &result{Correct: true, Attempted: 1, Metrics: map[string]summary{}}
		b := &result{Correct: true, Attempted: 1, Metrics: map[string]summary{}}
		for _, m := range endToEnd {
			a.Metrics[m.name], b.Metrics[m.name] = s, s
		}
		base.EndToEnd[def.name], worse.EndToEnd[def.name] = a, b
	}
	slow := s
	slow.Median, slow.Min, slow.Max = 133, 131, 136
	worse.EndToEnd["fleet_batch"].Metrics["latency_p50_us"] = slow
	dir := t.TempDir()
	write := func(name string, v interface{}) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", base), write("b.json", worse)
	bounds := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if err := compareFiles(&out, bounds, a, a); err != nil {
		t.Errorf("a file against itself: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, bounds, a, b); err == nil || !bytes.Contains(out.Bytes(), []byte("regressed")) {
		t.Errorf("a third worse p50 was not reported (err %v):\n%s", err, out.String())
	}
}
