package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SnapshotSafetyAnalyzer guards the immutability contract of the agent's
// lock-free read path (core/view.go): a snapshot published through an
// atomic.Pointer is frozen — every field is written before Store and
// never after, because concurrent readers hold the same pointer with no
// lock. A single post-publication write (`v.hits++` after `view.Load()`)
// is a data race that -race only catches if a reader happens to collide
// during the test run; this pass catches it structurally.
//
// The analysis is a forward may-taint dataflow over the function CFG:
// values become "published" when they come from atomic.Pointer.Load, from
// a function that returns a published value, or at the point they are
// handed to atomic.Pointer.Store (from then on readers may hold them).
// Violations are writes through a published value — direct field/index/
// pointer stores, delete() on a published map, and call sites that pass a
// published value to a function whose interprocedural summary says it
// writes that receiver or parameter.
var SnapshotSafetyAnalyzer = &Analyzer{
	Name: "snapshotsafety",
	Doc:  "flags writes to snapshot data published via atomic.Pointer",
	Paths: []string{
		"internal/core",
	},
	SkipTests: true,
	Run:       runSnapshotSafety,
}

// atomicPointerCall reports whether call invokes the named method on a
// sync/atomic.Pointer[T] receiver (possibly through an address-of).
func atomicPointerCall(pkg *Package, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok {
		return false
	}
	t := s.Recv()
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Pointer"
}

// writeBase peels an lvalue chain (selectors, indexing, dereference) down
// to its base expression and counts the steps. One or more steps means
// the statement writes *through* the base rather than rebinding it.
func writeBase(e ast.Expr) (ast.Expr, int) {
	steps := 0
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
			steps++
		case *ast.IndexExpr:
			e = x.X
			steps++
		case *ast.StarExpr:
			e = x.X
			steps++
		default:
			return e, steps
		}
	}
}

// publishedReturners computes, once per Run, the functions that return a
// value derived from an atomic.Pointer.Load — their results are live
// snapshots, not private copies. Flow-insensitive within each function,
// fixpoint across the call graph (a function returning the result of a
// returner is itself a returner).
func publishedReturners(prog *Program) map[string]bool {
	return prog.Cached("snapshotsafety.returners", func() any {
		g := prog.CallGraph()
		returners := make(map[string]bool)
		for changed := true; changed; {
			changed = false
			for _, id := range g.order {
				if returners[id] {
					continue
				}
				if returnsPublished(g.Funcs[id], returners) {
					returners[id] = true
					changed = true
				}
			}
		}
		return returners
	}).(map[string]bool)
}

// returnsPublished reports whether fn has a return statement whose result
// carries a published value, tracking local aliases flow-insensitively.
func returnsPublished(fn *FuncNode, returners map[string]bool) bool {
	pkg := fn.Pkg
	tainted := make(map[*types.Var]bool)

	exprHit := func(e ast.Expr) bool {
		hit := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.Ident:
				if v, ok := pkg.Info.Uses[n].(*types.Var); ok && tainted[v] {
					hit = true
				}
			case *ast.CallExpr:
				if atomicPointerCall(pkg, n, "Load") {
					hit = true
					return false
				}
				if f := calleeOf(pkg, n); f != nil && returners[f.FullName()] {
					hit = true
					return false
				}
			}
			return !hit
		})
		return hit
	}

	// Propagate through local assignments until stable. Store(x) also
	// taints x: a function that publishes a value and then returns it
	// (the publishView shape) hands its caller a live snapshot.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if atomicPointerCall(pkg, st, "Store") && len(st.Args) == 1 {
					if id, ok := ast.Unparen(st.Args[0]).(*ast.Ident); ok {
						if v := localVar(pkg, id); v != nil && !tainted[v] {
							tainted[v] = true
							changed = true
						}
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					v := localVar(pkg, id)
					if v == nil || tainted[v] {
						continue
					}
					rhs := st.Rhs
					if len(st.Rhs) == len(st.Lhs) {
						rhs = st.Rhs[i : i+1]
					}
					for _, r := range rhs {
						if exprHit(r) {
							tainted[v] = true
							changed = true
							break
						}
					}
				}
			}
			return true
		})
	}

	found := false
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, res := range ret.Results {
				if exprHit(res) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// localVar resolves an identifier to the *types.Var it defines or uses.
func localVar(pkg *Package, id *ast.Ident) *types.Var {
	if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// snapWriteSummary records which reference-typed slots (receiver, params)
// a function writes through, directly or via its callees.
type snapWriteSummary struct {
	recv   bool
	params []bool
}

func (s *snapWriteSummary) any() bool {
	if s.recv {
		return true
	}
	for _, p := range s.params {
		if p {
			return true
		}
	}
	return false
}

// mutableRef reports whether writes through a value of this type are
// visible to other holders of the same value.
func mutableRef(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice:
		return true
	}
	return false
}

// snapWriters computes, once per Run, the interprocedural write summaries
// for every module function: does it mutate data reachable from its
// receiver or a parameter? Direct writes seed the summaries; a fixpoint
// propagates them through call sites (passing a slot, or a projection of
// it, into a writing position of a callee makes the caller a writer too).
func snapWriters(prog *Program) map[string]*snapWriteSummary {
	return prog.Cached("snapshotsafety.writers", func() any {
		g := prog.CallGraph()
		slots := make(map[string]map[*types.Var]int) // var → param index; -1 = receiver
		sums := make(map[string]*snapWriteSummary)
		for _, id := range g.order {
			fn := g.Funcs[id]
			m := make(map[*types.Var]int)
			if fn.Decl.Recv != nil && len(fn.Decl.Recv.List) > 0 {
				for _, name := range fn.Decl.Recv.List[0].Names {
					if v, ok := fn.Pkg.Info.Defs[name].(*types.Var); ok && mutableRef(v.Type()) {
						m[v] = -1
					}
				}
			}
			idx := 0
			if params := fn.Decl.Type.Params; params != nil {
				for _, field := range params.List {
					if len(field.Names) == 0 {
						idx++
						continue
					}
					for _, name := range field.Names {
						if v, ok := fn.Pkg.Info.Defs[name].(*types.Var); ok && mutableRef(v.Type()) {
							m[v] = idx
						}
						idx++
					}
				}
			}
			slots[id] = m
			sums[id] = &snapWriteSummary{params: make([]bool, idx)}
		}

		mark := func(id string, target ast.Expr, needSteps int) bool {
			base, steps := writeBase(target)
			if steps < needSteps {
				return false
			}
			bid, ok := base.(*ast.Ident)
			if !ok {
				return false
			}
			v := localVar(g.Funcs[id].Pkg, bid)
			if v == nil {
				return false
			}
			slot, ok := slots[id][v]
			if !ok {
				return false
			}
			sum := sums[id]
			if slot == -1 {
				if sum.recv {
					return false
				}
				sum.recv = true
				return true
			}
			if sum.params[slot] {
				return false
			}
			sum.params[slot] = true
			return true
		}

		// Direct writes through a slot.
		for _, id := range g.order {
			fn := g.Funcs[id]
			ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					if st.Tok == token.DEFINE {
						return true
					}
					for _, lhs := range st.Lhs {
						mark(id, lhs, 1)
					}
				case *ast.IncDecStmt:
					mark(id, st.X, 1)
				case *ast.CallExpr:
					if bid, ok := st.Fun.(*ast.Ident); ok && len(st.Args) > 0 {
						if _, b := fn.Pkg.Info.Uses[bid].(*types.Builtin); b && bid.Name == "delete" {
							mark(id, st.Args[0], 0)
						}
					}
				}
				return true
			})
		}

		// Propagate through call sites.
		for changed := true; changed; {
			changed = false
			for _, id := range g.order {
				fn := g.Funcs[id]
				for _, cs := range fn.Calls {
					if cs.Callee == "" || cs.Callee == id {
						continue
					}
					csum := sums[cs.Callee]
					if csum == nil {
						continue
					}
					if csum.recv {
						if sel, ok := ast.Unparen(cs.Call.Fun).(*ast.SelectorExpr); ok {
							if mark(id, sel.X, 0) {
								changed = true
							}
						}
					}
					for i, arg := range cs.Call.Args {
						if i < len(csum.params) && csum.params[i] {
							if mark(id, arg, 0) {
								changed = true
							}
						}
					}
				}
			}
		}
		return sums
	}).(map[string]*snapWriteSummary)
}

func runSnapshotSafety(p *Pass) {
	returners := publishedReturners(p.Prog)
	writers := snapWriters(p.Prog)
	for _, file := range p.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkSnapshotFlow(p, returners, writers, body)
			}
			return true
		})
	}
}

// snapTransfer is the taint transfer: assignments from published values
// taint the bound variables, reassignment from clean values clears them,
// Store publishes its argument, and ranging over a published container
// taints the iteration variables.
func snapTransfer(p *Pass, returners map[string]bool) Transfer[*types.Var] {
	pkg := p.Pkg
	return func(n ast.Node, in Set[*types.Var]) Set[*types.Var] {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v := localVar(pkg, id)
				if v == nil {
					continue
				}
				rhs := st.Rhs
				if len(st.Rhs) == len(st.Lhs) {
					rhs = st.Rhs[i : i+1]
				}
				tainted := false
				for _, r := range rhs {
					if exprPublishes(pkg, returners, in, r) {
						tainted = true
						break
					}
				}
				switch {
				case tainted:
					in.Add(v)
				case st.Tok == token.ASSIGN || st.Tok == token.DEFINE:
					in.Del(v)
				}
			}
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						v := localVar(pkg, name)
						if v == nil {
							continue
						}
						var rhs []ast.Expr
						if len(vs.Values) == len(vs.Names) {
							rhs = vs.Values[i : i+1]
						} else {
							rhs = vs.Values
						}
						for _, r := range rhs {
							if exprPublishes(pkg, returners, in, r) {
								in.Add(v)
								break
							}
						}
					}
				}
			}
		}
		// Store(x) publishes x: from here on readers may hold it.
		ast.Inspect(n, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if atomicPointerCall(pkg, call, "Store") && len(call.Args) == 1 {
				if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
					if v := localVar(pkg, id); v != nil {
						in.Add(v)
					}
				}
			}
			return true
		})
		// Range over a published container aliases its elements.
		if rs, ok := n.(*ast.RangeStmt); ok {
			if exprPublishes(pkg, returners, in, rs.X) {
				for _, e := range []ast.Expr{rs.Key, rs.Value} {
					if id, ok := e.(*ast.Ident); ok && id != nil {
						if v := localVar(pkg, id); v != nil {
							in.Add(v)
						}
					}
				}
			}
		}
		return in
	}
}

// exprPublishes reports whether evaluating e can yield a published value:
// it mentions a tainted variable, calls atomic.Pointer.Load, or calls a
// published returner.
func exprPublishes(pkg *Package, returners map[string]bool, in Set[*types.Var], e ast.Expr) bool {
	if e == nil {
		return false
	}
	hit := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if v, ok := pkg.Info.Uses[n].(*types.Var); ok && in.Has(v) {
				hit = true
			}
		case *ast.CallExpr:
			if atomicPointerCall(pkg, n, "Load") {
				hit = true
				return false
			}
			if f := calleeOf(pkg, n); f != nil && returners[f.FullName()] {
				hit = true
				return false
			}
		}
		return !hit
	})
	return hit
}

// checkSnapshotFlow solves the taint dataflow over one function body and
// reports every write through a published value.
func checkSnapshotFlow(p *Pass, returners map[string]bool, writers map[string]*snapWriteSummary, body *ast.BlockStmt) {
	cfg := p.FuncCFG(body)
	transfer := snapTransfer(p, returners)
	res := Forward(cfg, MeetUnion, NewSet[*types.Var](), transfer)

	for _, b := range cfg.Blocks {
		if !b.Reachable() || res.In[b] == nil {
			continue
		}
		state := res.In[b].Clone()
		for _, n := range b.Nodes {
			reportSnapshotWrites(p, returners, writers, state, n)
			state = transfer(n, state)
		}
	}
}

// reportSnapshotWrites flags the violations visible in one CFG node given
// the taint state on entry to it.
func reportSnapshotWrites(p *Pass, returners map[string]bool, writers map[string]*snapWriteSummary, in Set[*types.Var], n ast.Node) {
	pkg := p.Pkg
	baseTainted := func(e ast.Expr) bool {
		base, _ := writeBase(e)
		return exprPublishes(pkg, returners, in, base)
	}

	switch st := n.(type) {
	case *ast.AssignStmt:
		if st.Tok != token.DEFINE {
			for _, lhs := range st.Lhs {
				if _, steps := writeBase(lhs); steps == 0 {
					continue
				}
				if baseTainted(lhs) {
					p.Reportf(lhs.Pos(),
						"write mutates a snapshot published via atomic.Pointer; snapshots are immutable after Store — build a fresh view and Store that instead")
				}
			}
		}
	case *ast.IncDecStmt:
		if _, steps := writeBase(st.X); steps > 0 && baseTainted(st.X) {
			p.Reportf(st.X.Pos(),
				"write mutates a snapshot published via atomic.Pointer; snapshots are immutable after Store — build a fresh view and Store that instead")
		}
	}

	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) > 0 {
			if _, b := pkg.Info.Uses[id].(*types.Builtin); b && id.Name == "delete" {
				if baseTainted(call.Args[0]) {
					p.Reportf(call.Pos(),
						"delete mutates a map inside a published snapshot; rebuild the snapshot instead")
				}
				return true
			}
		}
		f := calleeOf(pkg, call)
		if f == nil {
			return true
		}
		sum := writers[f.FullName()]
		if sum == nil || !sum.any() {
			return true
		}
		if sum.recv {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && baseTainted(sel.X) {
				p.Reportf(call.Pos(),
					"%s writes through its receiver, but the receiver is a published snapshot; operate on a fresh copy",
					f.Name())
			}
		}
		for i, arg := range call.Args {
			if i < len(sum.params) && sum.params[i] && baseTainted(arg) {
				p.Reportf(call.Pos(),
					"call passes a published snapshot to %s, which writes that argument; pass a fresh copy",
					f.Name())
			}
		}
		return true
	})
}
