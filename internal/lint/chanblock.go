package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// ChanBlockAnalyzer flags blocking channel operations inside critical
// sections: a send or receive on an *unbuffered* channel performed while
// a mutex is held parks the goroutine until a partner arrives — and if
// that partner needs the same lock (the common shape in the fleet's
// connection teardown and the ofwire reader/writer pairs), the program
// deadlocks. Buffered channels are exempt (a send can complete without a
// partner), as are comms inside a select that has a default clause (the
// operation cannot block).
//
// It composes two analyses this package already has: the lockcheck
// must-held dataflow, run with deferred unlocks not releasing (the
// critical section extends to the return), and a package-wide channel
// census (which channel variables and fields are only ever assigned
// unbuffered makes).
var ChanBlockAnalyzer = &Analyzer{
	Name: "chanblock",
	Doc:  "flags sends/receives on unbuffered channels while a mutex is held",
	Paths: []string{
		"internal/fleet",
		"internal/ofwire",
		"internal/core",
	},
	SkipTests: true,
	Run:       runChanBlock,
}

// chanMake classifies a make(chan ...) expression: whether it makes a
// channel at all, and whether that channel is unbuffered (no capacity
// argument, or a constant zero).
func chanMake(pkg *Package, e ast.Expr) (isChan, unbuffered bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false, false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" {
		return false, false
	}
	if _, b := pkg.Info.Uses[id].(*types.Builtin); !b {
		return false, false
	}
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false, false
	}
	if _, ok := tv.Type.Underlying().(*types.Chan); !ok {
		return false, false
	}
	if len(call.Args) < 2 {
		return true, true
	}
	if capv, ok := pkg.Info.Types[call.Args[1]]; ok && capv.Value != nil {
		if v, exact := constant.Int64Val(capv.Value); exact && v == 0 {
			return true, true
		}
	}
	return true, false
}

// unbufferedChans walks every file of the package (tests included — an
// assignment anywhere can rebind a channel) and returns the channel
// variables and struct fields that are assigned unbuffered makes and
// nothing else. A single assignment from any other expression
// disqualifies the object: it might alias a buffered channel.
func unbufferedChans(p *Pass) map[*types.Var]bool {
	made := make(map[*types.Var]bool)
	disqualified := make(map[*types.Var]bool)

	chanVarOf := func(e ast.Expr) *types.Var {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if v := localVar(p.Pkg, x); v != nil {
				if _, ok := v.Type().Underlying().(*types.Chan); ok {
					return v
				}
			}
		case *ast.SelectorExpr:
			if v, ok := p.Pkg.Info.Uses[x.Sel].(*types.Var); ok {
				if _, chOk := v.Type().Underlying().(*types.Chan); chOk {
					return v
				}
			}
		}
		return nil
	}

	record := func(lhs, rhs ast.Expr) {
		v := chanVarOf(lhs)
		if v == nil {
			return
		}
		if rhs == nil {
			// var c chan T — nil channel; blocks forever, but that is a
			// different bug class. Treat as disqualifying nothing.
			return
		}
		if isChan, unbuf := chanMake(p.Pkg, rhs); isChan && unbuf {
			made[v] = true
		} else {
			disqualified[v] = true
		}
	}

	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					if len(st.Rhs) == len(st.Lhs) {
						record(lhs, st.Rhs[i])
					} else if chanVarOf(lhs) != nil {
						// Multi-value assignment: origin unknown.
						disqualified[chanVarOf(lhs)] = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range st.Names {
					if len(st.Values) == len(st.Names) {
						record(name, st.Values[i])
					} else if len(st.Values) > 0 && chanVarOf(name) != nil {
						disqualified[chanVarOf(name)] = true
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := st.Key.(*ast.Ident); ok {
					if v, ok := p.Pkg.Info.Uses[key].(*types.Var); ok {
						if _, chOk := v.Type().Underlying().(*types.Chan); chOk {
							if isChan, unbuf := chanMake(p.Pkg, st.Value); isChan && unbuf {
								made[v] = true
							} else {
								disqualified[v] = true
							}
						}
					}
				}
			}
			return true
		})
	}

	out := make(map[*types.Var]bool, len(made))
	for v := range made {
		if !disqualified[v] {
			out[v] = true
		}
	}
	return out
}

// chanOperand resolves the channel expression of a send/receive to its
// variable or field, if it names one directly.
func chanOperand(p *Pass, e ast.Expr) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return localVar(p.Pkg, x)
	case *ast.SelectorExpr:
		if v, ok := p.Pkg.Info.Uses[x.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// nonBlockingComms collects the comm statements of every select that has
// a default clause — those operations cannot block.
func nonBlockingComms(body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				out[cc.Comm] = true
			}
		}
		return true
	})
	return out
}

func runChanBlock(p *Pass) {
	unbuffered := unbufferedChans(p)
	if len(unbuffered) == 0 {
		return
	}
	p.FuncBodies(func(body *ast.BlockStmt) { checkChanBlock(p, unbuffered, body) })
}

func checkChanBlock(p *Pass, unbuffered map[*types.Var]bool, body *ast.BlockStmt) {
	cfg := p.FuncCFG(body)
	transfer := lockTransfer(false)
	exempt := nonBlockingComms(body)
	res := Forward(cfg, MeetIntersect, NewSet[lockKey](), transfer)
	res.Replay(cfg, transfer, func(node ast.Node, locks Set[lockKey]) {
		if len(locks) == 0 || exempt[node] {
			return
		}
		ast.Inspect(node, func(x ast.Node) bool {
			switch op := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SendStmt:
				if exempt[op] {
					return true
				}
				if v := chanOperand(p, op.Chan); v != nil && unbuffered[v] {
					p.Reportf(op.Pos(),
						"send on unbuffered channel %s while %s is held; a partner needing the lock deadlocks — buffer the channel or move the send outside the critical section",
						v.Name(), firstLock(locks))
				}
			case *ast.UnaryExpr:
				if op.Op != token.ARROW {
					return true
				}
				if v := chanOperand(p, op.X); v != nil && unbuffered[v] {
					p.Reportf(op.Pos(),
						"receive on unbuffered channel %s while %s is held; a partner needing the lock deadlocks — buffer the channel or move the receive outside the critical section",
						v.Name(), firstLock(locks))
				}
			}
			return true
		})
	})
}

// firstLock renders one held lock deterministically (the set is tiny; the
// lexicographically first key keeps messages stable).
func firstLock(locks Set[lockKey]) string {
	best := ""
	for k := range locks {
		if s := k.String(); best == "" || s < best {
			best = s
		}
	}
	return best
}
