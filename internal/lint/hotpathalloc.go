package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAllocAnalyzer is the interprocedural upgrade of allocscan. The
// intraprocedural pass catches a make() written directly inside
// Table.Lookup; it is blind to the same allocation pushed one call down
// into a helper. This pass propagates the zero-alloc budget through the
// module call graph: from each hot root (per-packet lookup functions, the
// obs record path, and the agent's snapshot read path in internal/core),
// every resolved call site whose callee transitively allocates is
// reported at the call site with the chain that carries the allocation
// in. Direct allocations inside a root are reported too, at the same
// position allocscan uses, and the shared "alloc" dedup group collapses
// the overlap where both analyzers cover a package.
//
// Like the call graph itself this under-approximates dynamic dispatch:
// allocations behind interface calls or function values are not chased.
// The hot paths are deliberately monomorphic, so in practice the static
// closure is the real closure.
var HotPathAllocAnalyzer = &Analyzer{
	Name:       "hotpathalloc",
	Doc:        "flags calls from zero-alloc hot-path roots to helpers that transitively allocate",
	DedupGroup: "alloc",
	Paths: []string{
		"internal/tcam",
		"internal/classifier",
		"internal/obs",
		"internal/core",
		"internal/rulecache",
	},
	SkipTests: true,
	Run:       runHotPathAlloc,
}

// coreRebalanceFuncs are the cache rebalance pass's quiet-tick functions
// (DESIGN.md §16): a tick in which no rule crosses the capacity cut runs
// exactly these and must allocate nothing
// (TestRebalanceQuietTickAllocs). The moves, the cover-hygiene pass and the
// snapshot republish they call only on ticks that changed something carry
// justified ignores at the call site. Only meaningful inside internal/core.
var coreRebalanceFuncs = map[string]bool{
	"rebalanceLocked": true,
	"rankLocked":      true,
	"scoreOf":         true,
}

// hotAllocRoot reports whether a function starts a zero-alloc budget:
// lookup-path functions in tcam/classifier/core plus the core rebalance
// pass, record-path functions in obs. Roots found via the call graph
// share the name rules allocscan applies file by file.
func hotAllocRoot(fn *FuncNode) bool {
	path := strings.TrimSuffix(fn.Pkg.Path, "_test")
	if path == "internal/obs" || strings.HasSuffix(path, "/internal/obs") {
		return obsRecordFuncs[fn.Name]
	}
	if path == "internal/core" || strings.HasSuffix(path, "/internal/core") {
		return hotPathFunc(fn.Name) || coreRebalanceFuncs[fn.Name]
	}
	if isRulecachePath(path) {
		return hotPathFunc(fn.Name) || cacheSampleFuncs[fn.Name]
	}
	for _, suffix := range []string{"internal/tcam", "internal/classifier"} {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return hotPathFunc(fn.Name)
		}
	}
	return false
}

// allocReach computes, once per Run, which module functions transitively
// perform a heap allocation (make, append, or a map/slice composite
// literal anywhere in the body, including nested literals).
func allocReach(prog *Program) map[string]*ReachInfo {
	return prog.Cached("hotpathalloc.reach", func() any {
		g := prog.CallGraph()
		return g.Reaches(directAlloc)
	}).(map[string]*ReachInfo)
}

// directAlloc finds the first heap allocation lexically inside a function
// body.
func directAlloc(fn *FuncNode) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if p, ok := allocSite(fn.Pkg, n); ok {
			pos, found = p, true
			return false
		}
		return true
	})
	return pos, found
}

// allocSite decodes one allocating node: a make/append builtin call or a
// map/slice composite literal. The same set allocscan flags.
func allocSite(pkg *Package, n ast.Node) (token.Pos, bool) {
	switch n := n.(type) {
	case *ast.CallExpr:
		id, ok := n.Fun.(*ast.Ident)
		if !ok {
			return token.NoPos, false
		}
		if _, builtin := pkg.Info.Uses[id].(*types.Builtin); !builtin {
			return token.NoPos, false
		}
		if id.Name == "make" || id.Name == "append" {
			return n.Pos(), true
		}
	case *ast.CompositeLit:
		tv, ok := pkg.Info.Types[n]
		if !ok || tv.Type == nil {
			return token.NoPos, false
		}
		switch tv.Type.Underlying().(type) {
		case *types.Map, *types.Slice:
			return n.Pos(), true
		}
	}
	return token.NoPos, false
}

func runHotPathAlloc(p *Pass) {
	reach := allocReach(p.Prog)
	g := p.Prog.CallGraph()
	for _, id := range g.order {
		node := g.Funcs[id]
		if node.Pkg != p.Pkg || !p.DeclInScope(node.Decl) || !hotAllocRoot(node) {
			continue
		}
		// Direct allocations in the root body itself. Same positions
		// allocscan reports where it also runs; dedup keeps one.
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if pos, ok := allocSite(p.Pkg, n); ok {
				p.Reportf(pos, "%s is a zero-alloc hot-path root but allocates here; hoist the allocation into setup state",
					node.Name)
			}
			return true
		})
		// Call sites whose callee transitively allocates. Callees that are
		// themselves roots get their own analysis, so the budget handoff is
		// theirs to justify, not this call site's.
		for _, cs := range node.Calls {
			if cs.Callee == "" || cs.Callee == id {
				continue
			}
			info := reach[cs.Callee]
			if info == nil {
				continue
			}
			if callee := g.Node(cs.Callee); callee != nil && hotAllocRoot(callee) {
				continue
			}
			chain := append([]string{shortFuncID(cs.Callee)}, g.Chain(reach, cs.Callee)...)
			p.Reportf(cs.Call.Pos(),
				"%s is zero-alloc but this call allocates via %s; hoist the allocation or restructure the helper",
				node.Name, joinChain(chain))
		}
	}
}
