package lint

import (
	"go/ast"
	"go/types"
)

// LockcheckAnalyzer guards the lock discipline around shared TCAM, client
// and telemetry state: a function that takes mu.Lock() must release it on
// every return path, either inline before the return or via defer. It is
// the canonical hermes-vet must-analysis: a forward dataflow over the
// function CFG with intersection at merges, so only locks held on *every*
// path into a return are reported (no false positives from branches that
// already released), with //lint:ignore lockcheck as the escape hatch for
// intentional lock-handoff patterns.
var LockcheckAnalyzer = &Analyzer{
	Name: "lockcheck",
	Doc:  "flags return paths that leave a mutex locked",
	Paths: []string{
		"internal/fleet",
		"internal/ofwire",
		"internal/core",
	},
	Run: runLockcheck,
}

// lockKey identifies one held lock: the receiver expression plus whether
// it is the read half of an RWMutex.
type lockKey struct {
	recv string
	read bool
}

func (k lockKey) String() string {
	if k.read {
		return k.recv + " (read-locked)"
	}
	return k.recv
}

func runLockcheck(p *Pass) {
	p.FuncBodies(func(body *ast.BlockStmt) { checkLockFlow(p, body) })
}

// lockTransfer is the lock-state transfer: Lock/RLock add the held fact,
// Unlock/RUnlock remove it, and so does a deferred unlock (direct, or inside
// a deferred closure) — the leak-at-return view, where the lock is gone by
// the time any return completes. Nested function literals are opaque: they
// run on their own schedule and are analyzed as their own functions.
func lockTransfer(n ast.Node, in Set[lockKey]) Set[lockKey] {
	switch st := n.(type) {
	case *ast.ExprStmt:
		if key, acquire, ok := lockCall(st.X); ok {
			if acquire {
				in.Add(key)
			} else {
				in.Del(key)
			}
		}
	case *ast.DeferStmt:
		if key, acquire, ok := lockCall(st.Call); ok && !acquire {
			in.Del(key)
			return in
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(inner ast.Node) bool {
				if e, ok := inner.(*ast.ExprStmt); ok {
					if key, acquire, ok := lockCall(e.X); ok && !acquire {
						in.Del(key)
					}
				}
				return true
			})
		}
	}
	return in
}

// checkLockFlow solves must-held-locks over the body's CFG and reports
// returns (and the function end) reached with a lock still held. Paths
// that leave via panic are exempt: the deferred unlocks of callers, and
// the test harness, own that case.
func checkLockFlow(p *Pass, body *ast.BlockStmt) {
	cfg := p.FuncCFG(body)
	res := Forward(cfg, NewSet[lockKey](), lockTransfer)
	res.Replay(cfg, lockTransfer, func(n ast.Node, held Set[lockKey]) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for k := range held {
				p.Reportf(ret.Pos(), "return with %s still held; unlock before returning or use defer", k)
			}
		}
	})

	// Fall-off-the-end: the exit block's fall-through predecessors.
	held := NewSet[lockKey]()
	for _, pred := range cfg.Exit.Preds {
		if pred.Term != nil || res.Out[pred] == nil {
			continue
		}
		for k := range res.Out[pred] {
			held.Add(k)
		}
	}
	for k := range held {
		p.Reportf(body.Rbrace, "function ends with %s still held", k)
	}
}

// lockCall decodes m.Lock()/m.Unlock()/m.RLock()/m.RUnlock() calls.
func lockCall(e ast.Expr) (key lockKey, acquire, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return lockKey{}, false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return lockKey{}, false, false
	}
	recv := types.ExprString(sel.X)
	switch sel.Sel.Name {
	case "Lock":
		return lockKey{recv: recv}, true, true
	case "Unlock":
		return lockKey{recv: recv}, false, true
	case "RLock":
		return lockKey{recv: recv, read: true}, true, true
	case "RUnlock":
		return lockKey{recv: recv, read: true}, false, true
	}
	return lockKey{}, false, false
}
