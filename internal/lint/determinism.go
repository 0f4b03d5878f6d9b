package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismAnalyzer guards the replayable-simulation invariant: the
// predictor/corrector experiments (paper §6) and the fleet's seeded
// backoff are only comparable run-to-run if the simulated packages draw no
// wall-clock time and no global (process-seeded) randomness. Seeded
// *rand.Rand values threaded through APIs are fine; package-level
// math/rand functions and time.Now are not.
//
// One predicate, nondeterministic, drives two reports. A direct use is
// flagged wherever it is written in a deterministic package, test files
// and package-level initializers included. A call from a non-test
// declaration of a deterministic package into a helper elsewhere that
// reaches a use through the module call graph (callgraph.go) is flagged
// at the call, with the chain that carries it in: sim calls util.Stamp(),
// util.Stamp calls time.Now, and every experiment stops replaying. Calls
// to helpers *within* the deterministic set are exempt — their bodies are
// checked directly — so each violation is reported once, at the boundary.
var DeterminismAnalyzer = &Analyzer{
	Name:  "determinism",
	Doc:   "flags wall-clock time and global math/rand use in deterministic packages, directly or through helper calls",
	Paths: deterministicPaths,
	Run:   runDeterminism,
}

// deterministicPaths are the packages promised to draw no wall-clock time
// and no global randomness.
var deterministicPaths = []string{
	"internal/sim",
	"internal/predict",
	"internal/classifier",
	"internal/tcam",
	"internal/workload",
	"internal/faultinject",
	"internal/obs",
	"internal/loadgen",
	"internal/intent",
	"internal/rulecache",
}

// isDeterministicPath reports whether a package import path (module- or
// corpus-relative) falls inside the deterministic set.
func isDeterministicPath(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, suffix := range deterministicPaths {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

// bannedTime are the wall-clock entry points; the virtual clock
// (time.Duration arithmetic) stays allowed.
var bannedTime = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// bannedRand are the package-level math/rand functions that draw from the
// shared, process-global source. Constructors for injectable generators
// (New, NewSource, NewZipf) are deliberately absent.
var bannedRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// nondeterministic reports whether n names a wall-clock read or a draw
// from the global math/rand source.
func nondeterministic(pkg *Package, n ast.Node) bool {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch pkgNameOf(pkg, sel.X) {
	case "time":
		return bannedTime[sel.Sel.Name]
	case "math/rand", "math/rand/v2":
		return bannedRand[sel.Sel.Name]
	}
	return false
}

func runDeterminism(p *Pass) {
	for _, file := range p.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			if nondeterministic(p.Pkg, n) {
				p.Reportf(n.Pos(),
					"%s reads the wall clock or the global random source in a deterministic package; inject a virtual clock or a seeded *rand.Rand",
					types.ExprString(n.(ast.Expr)))
			}
			return true
		})
	}

	reach := p.Prog.Cached("determinism.reach", func() any {
		return p.Prog.CallGraph().Reaches(nondeterministic, nil)
	}).(map[string]*ReachInfo)
	g := p.Prog.CallGraph()
	for _, id := range g.order {
		node := g.Funcs[id]
		if node.Pkg != p.Pkg || p.IsTest(node.Decl) {
			continue
		}
		for _, cs := range node.Calls {
			callee := g.Node(cs.Callee)
			if callee == nil || reach[cs.Callee] == nil || isDeterministicPath(callee.Pkg.Path) {
				continue
			}
			chain, sink := chainOf(reach, cs.Callee)
			p.Reportf(cs.Call.Pos(),
				"call reaches wall-clock time or global rand via %s (at %s); inject a virtual clock or a seeded *rand.Rand",
				chain, shortPos(p.Fset.Position(sink)))
		}
	}
}

// shortPos trims a position to its last two path elements for message
// brevity (full paths are already in the finding position).
func shortPos(pos token.Position) string {
	parts := strings.Split(pos.Filename, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return fmt.Sprintf("%s:%d", strings.Join(parts, "/"), pos.Line)
}
