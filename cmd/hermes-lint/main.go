// Command hermes-lint is the front end of hermes-vet, the project's
// static analysis engine (DESIGN.md §8): per-function control-flow
// graphs, a module-wide call graph, and a forward-dataflow framework that
// the analyzers share. Each analyzer enforces one of Hermes's invariants;
// DESIGN.md §8.2 describes them and -list prints the suite.
//
// Usage:
//
//	hermes-lint [-list] [pattern ...]
//
// Patterns are directories or "dir/..." trees; the default is "./...".
// Findings print one per line, sorted by position. Exit status is 0 when
// clean, 1 when findings are reported, and 2 on a usage, load, or
// type-check failure. Findings can be suppressed at a specific line with
// "//lint:ignore <analyzer> <reason>" — the reason is mandatory and the
// analyzer name is checked (lintdirective flags violations).
package main

import (
	"flag"
	"fmt"
	"os"

	"hermes/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one lint invocation and returns the process exit code:
// 0 clean, 1 findings, 2 usage/load error.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("hermes-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, fset, err := lint.Load(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "hermes-lint:", err)
		return 2
	}
	findings := lint.Run(analyzers, pkgs, fset)
	lint.WriteText(stdout, findings)
	if len(findings) > 0 {
		return 1
	}
	return 0
}
