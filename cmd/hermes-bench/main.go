// Command hermes-bench runs the paper experiments: it regenerates the
// paper's tables and figures. It is not the repo's performance benchmark —
// that is the benchmark/ module (bash benchmark/run.sh).
//
// Usage:
//
//	hermes-bench [-scale F] [-list] [experiment ...]
//
// With no experiment arguments it runs the full suite (Table 1, Figures 1
// and 8–15, the §8.6 predictor sweep, the §8.4 BGP study, and the design
// ablations) and prints paper-style rows for each. Scale 1 is the default
// laptop-sized configuration; -scale 4 runs the paper-sized fat-tree
// (k=16, 1024 hosts) where applicable.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hermes/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 1.0, "experiment scale factor (0.1 = smoke test, 4 = paper-sized)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	csvDir := flag.String("csv", "", "also write each experiment's tables as CSV files into this directory")
	cacheJSON := flag.String("cache-json", "", "run the cache experiment and write the JSON report to this file, then exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hermes-bench [-scale F] [-list] [experiment ...]\n\nexperiments: %v\n", experiments.IDs())
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *cacheJSON != "" {
		if err := runCacheJSON(*cacheJSON, *scale); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.Order()
	}
	start := time.Now()
	for _, id := range ids {
		res, err := experiments.Run(id, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(res)
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
	}
	fmt.Printf("completed in %v (scale %g)\n", time.Since(start).Round(time.Millisecond), *scale)
}

// writeCSVs dumps each of the result's tables as <dir>/<id>-<n>.csv.
func writeCSVs(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, tab := range res.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.csv", res.ID, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tab.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
