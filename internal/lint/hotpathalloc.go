package lint

import (
	"go/ast"
	"go/types"
)

// HotPathAllocAnalyzer guards the zero-allocation hot paths: the agent's
// per-packet lookup, the obs record path, the cache's packet sampling and
// the rebalance pass's quiet tick all promise 0 allocs/op, and a stray
// make(), growing append, or map/slice literal turns every packet into a
// heap allocation and a GC assist — a regression benchmarks catch late and
// this check catches at lint time.
//
// A root is a function whose doc comment carries //hermes:hotpath. Every
// allocation written in a root's body is reported where it stands, and so
// is every resolved call site whose callee transitively allocates, with
// the chain that carries the allocation in. A callee marked
// //hermes:coldpath <reason> ends the budget: calls to it are not
// reported, and the closure does not propagate through it, so the reason
// at the callee replaces a suppression at every call site. Calls from one
// root into another are skipped too: the callee justifies its own budget.
//
// Like the call graph itself this under-approximates dynamic dispatch:
// allocations behind interface calls or function values are not chased.
// The hot paths are deliberately monomorphic, so in practice the static
// closure is the real closure.
var HotPathAllocAnalyzer = &Analyzer{
	Name:      "hotpathalloc",
	Doc:       "flags heap allocation in //hermes:hotpath functions, directly or through the helpers they call",
	SkipTests: true,
	Run:       runHotPathAlloc,
}

// allocates reports whether n allocates on the heap: a make/append builtin
// call or a map/slice composite literal.
func allocates(pkg *Package, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		id, ok := n.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		_, builtin := pkg.Info.Uses[id].(*types.Builtin)
		return builtin && (id.Name == "make" || id.Name == "append")
	case *ast.CompositeLit:
		if tv, ok := pkg.Info.Types[n]; ok && tv.Type != nil {
			switch tv.Type.Underlying().(type) {
			case *types.Map, *types.Slice:
				return true
			}
		}
	}
	return false
}

func runHotPathAlloc(p *Pass) {
	reach := p.Prog.Cached("hotpathalloc.reach", func() any {
		cold := func(fn *FuncNode) bool { return annotated(fn.Decl, "coldpath") }
		return p.Prog.CallGraph().Reaches(allocates, cold)
	}).(map[string]*ReachInfo)
	g := p.Prog.CallGraph()
	for _, id := range g.order {
		node := g.Funcs[id]
		if node.Pkg != p.Pkg || !p.InScope(node.Decl) || !annotated(node.Decl, "hotpath") {
			continue
		}
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if allocates(p.Pkg, n) {
				p.Reportf(n.Pos(), "%s is a zero-alloc hot-path root but allocates here; hoist the allocation into setup state",
					node.Name)
			}
			return true
		})
		for _, cs := range node.Calls {
			if cs.Callee == id || reach[cs.Callee] == nil || annotated(g.Node(cs.Callee).Decl, "hotpath") {
				continue
			}
			chain, _ := chainOf(reach, cs.Callee)
			p.Reportf(cs.Call.Pos(),
				"%s is zero-alloc but this call allocates via %s; hoist the allocation, restructure the helper, or mark it //hermes:coldpath with a reason",
				node.Name, chain)
		}
	}
}
