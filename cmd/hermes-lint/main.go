// Command hermes-lint is the front end of hermes-vet, the project's
// static analysis engine (DESIGN.md §8): per-function control-flow
// graphs, a module-wide call graph, and a forward-dataflow framework that
// the analyzers share. The suite mechanically enforces Hermes's
// invariants, one analyzer each — deterministic simulation (direct use or
// reached through helper calls), zero-alloc hot paths (the functions
// marked //hermes:hotpath, including allocations laundered through
// helpers), lock discipline, snapshot immutability after atomic
// publication, blocking channel operations inside critical sections,
// wire-codec bounds safety, error-chain preservation, test-goroutine
// hygiene, the agent's one carved-table writer, and the hygiene of its own
// comment directives.
//
// Usage:
//
//	hermes-lint [-sarif] [-list] [pattern ...]
//
// Patterns are directories or "dir/..." trees; the default is "./...".
// Findings print one per line, sorted by position; -sarif emits a SARIF
// 2.1.0 log for code-scanning upload instead (paths relative to the
// current directory). Exit status is 0 when clean, 1 when findings are
// reported, and 2 on a usage, load, or type-check failure. Findings can
// be suppressed at a specific line with "//lint:ignore <analyzer>
// <reason>" — the reason is mandatory and the analyzer name is checked
// (lintdirective flags violations).
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
	sarifOut := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0 for code-scanning upload")
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

	if *sarifOut {
		root, rootErr := os.Getwd()
		if rootErr != nil {
			root = ""
		}
		if err := lint.WriteSARIF(stdout, analyzers, findings, root); err != nil {
			fmt.Fprintln(stderr, "hermes-lint:", err)
			return 2
		}
	} else {
		lint.WriteText(stdout, findings)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
