package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide call graph the interprocedural
// hermes-vet analyzers (hotpathalloc, determinism, snapshotsafety) traverse.
// Resolution is the classic static approximation: direct function calls
// and method calls on concrete receivers resolve to their declarations;
// calls through interfaces, function values, and into packages outside the
// loaded set stay unresolved (no edge). That under-approximates dynamic
// dispatch — acceptable for invariant enforcement because the hot paths it
// guards are deliberately monomorphic — and never invents spurious edges.
//
// Nodes are keyed by types.Func.FullName (e.g.
// "(*hermes/internal/classifier.Trie).Lookup"), which is stable
// across independently type-checked packages, so edges connect across
// package boundaries even though each *Package carries its own types
// universe.

// FuncNode is one declared function or method in the loaded packages.
type FuncNode struct {
	ID   string // types.Func.FullName
	Name string // bare declared name
	Pkg  *Package
	Decl *ast.FuncDecl
	// Calls are the call sites lexically inside the declaration,
	// including those in nested function literals (a literal is assumed
	// to run on behalf of its enclosing function — conservative in the
	// right direction for budget propagation).
	Calls []CallSite
}

// CallSite is one call expression and its resolved callee, if any.
type CallSite struct {
	Call   *ast.CallExpr
	Callee string // FuncNode ID, or "" when unresolved
}

// CallGraph is the interprocedural call structure of the loaded module.
type CallGraph struct {
	Funcs map[string]*FuncNode
	// order holds IDs sorted for deterministic iteration.
	order []string
}

// BuildCallGraph walks every loaded package once.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Funcs: make(map[string]*FuncNode)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{ID: obj.FullName(), Name: fn.Name.Name, Pkg: pkg, Decl: fn}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := calleeOf(pkg, call)
					id := ""
					if callee != nil {
						id = callee.FullName()
					}
					node.Calls = append(node.Calls, CallSite{Call: call, Callee: id})
					return true
				})
				g.Funcs[node.ID] = node
			}
		}
	}
	g.order = make([]string, 0, len(g.Funcs))
	for id := range g.Funcs {
		g.order = append(g.order, id)
	}
	sort.Strings(g.order)
	return g
}

// calleeOf resolves a call expression to the *types.Func it statically
// invokes, or nil (builtin, conversion, function value, interface method
// with no static target).
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				if isInterface(sel.Recv()) {
					return nil // dynamic dispatch: no static callee
				}
				return f
			}
			return nil
		}
		// Package-qualified call: pkg.F(...).
		if f, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// Node returns the declaration node for an ID, or nil for functions
// outside the loaded set (stdlib, unexported dependencies).
func (g *CallGraph) Node(id string) *FuncNode { return g.Funcs[id] }

// ReachInfo explains why a function carries a transitive property: either
// it exhibits it directly at Pos, or a call at Pos reaches Via, which
// does.
type ReachInfo struct {
	Direct bool
	Pos    token.Pos
	Via    string
}

// Reaches computes the transitive closure of a per-node property over the
// call graph: a function has the property if site accepts some node of its
// body, or if any resolved call site's callee has it. A function for which
// stop (if non-nil) holds never has it, so the closure does not pass
// through it. The returned map holds a witness per affected function, so
// analyzers can print the chain that carries a violation into a guarded
// root. Iterates to a fixed point; deterministic because functions and
// call sites are visited in sorted declaration order.
func (g *CallGraph) Reaches(site func(*Package, ast.Node) bool, stop func(*FuncNode) bool) map[string]*ReachInfo {
	out := make(map[string]*ReachInfo)
	for _, id := range g.order {
		fn := g.Funcs[id]
		if stop != nil && stop(fn) {
			continue
		}
		var pos token.Pos
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if pos == token.NoPos && site(fn.Pkg, n) {
				pos = n.Pos()
			}
			return pos == token.NoPos
		})
		if pos != token.NoPos {
			out[id] = &ReachInfo{Direct: true, Pos: pos}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, id := range g.order {
			if _, done := out[id]; done || (stop != nil && stop(g.Funcs[id])) {
				continue
			}
			for _, cs := range g.Funcs[id].Calls {
				if cs.Callee == "" || cs.Callee == id {
					continue
				}
				if _, hit := out[cs.Callee]; hit {
					out[id] = &ReachInfo{Pos: cs.Call.Pos(), Via: cs.Callee}
					changed = true
					break
				}
			}
		}
	}
	return out
}

// chainOf renders the witness path from id down to the direct occurrence,
// e.g. "Agent.publishView → classifier.NewRuleIndex", and returns the
// occurrence's position. Every witness points at a function recorded
// before it, so the walk cannot cycle.
func chainOf(reach map[string]*ReachInfo, id string) (string, token.Pos) {
	chain := []string{shortFuncID(id)}
	info := reach[id]
	for !info.Direct {
		chain = append(chain, shortFuncID(info.Via))
		info = reach[info.Via]
	}
	return strings.Join(chain, " → "), info.Pos
}

// shortFuncID compresses a FullName to "Type.Method" or "pkg.Func" for
// diagnostics.
func shortFuncID(id string) string {
	// "(*hermes/internal/classifier.Trie).Lookup"      → "Trie.Lookup"
	// "hermes/internal/classifier.NewRuleIndex"        → "classifier.NewRuleIndex"
	s := id
	if len(s) > 0 && s[0] == '(' {
		if i := strings.LastIndexByte(s, ')'); i > 0 {
			recv := s[1:i]
			rest := s[i+1:] // ".Lookup"
			for len(recv) > 0 && recv[0] == '*' {
				recv = recv[1:]
			}
			if j := strings.LastIndexByte(recv, '.'); j >= 0 {
				recv = recv[j+1:]
			}
			return recv + rest
		}
	}
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		return s[i+1:]
	}
	return s
}
