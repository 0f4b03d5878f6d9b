package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// boundsFile is the part of BENCHMARK.json -compare needs.
type boundsFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per (end-to-end metric, workload): how much
// worse b's median is than a's as a share of a's, against the metric's
// bound. A row is "regressed" when that exceeds the bound, "unresolved"
// when either run's own min-max spread is wider than the bound (so the
// medians cannot settle it), and "ok" otherwise. Any regressed row is the
// returned error.
func compareFiles(w io.Writer, boundsPath, aPath, bPath string) error {
	var bf boundsFile
	var a, b results
	for _, f := range []struct {
		path string
		into interface{}
	}{{boundsPath, &bf}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			return err
		}
	}
	regressed := 0
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	for _, def := range workloads {
		ra, rb := a.EndToEnd[def.name], b.EndToEnd[def.name]
		if ra == nil || rb == nil {
			return fmt.Errorf("workload %s is missing from a results file", def.name)
		}
		for _, m := range bf.EndToEnd {
			sa, sb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max((sa.Max-sa.Min)/sa.Median, (sb.Max-sb.Min)/sb.Median)
			verdict := "ok"
			switch {
			case worse > m.Bound && worse > spread:
				verdict = "regressed"
				regressed++
			case spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-20s %-18s %14.6g %14.6g %+8.1f%% %8.1f%% %6.0f%%  %s\n",
				def.name, m.Name, sa.Median, sb.Median, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
		if ra.Failed != rb.Failed || ra.Attempted != rb.Attempted {
			fmt.Fprintf(w, "%-20s %-18s %14d %14d  failed ops of %d and %d attempted\n", def.name, "failed", ra.Failed, rb.Failed, ra.Attempted, rb.Attempted)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric×workload rows regressed", regressed)
	}
	return nil
}
