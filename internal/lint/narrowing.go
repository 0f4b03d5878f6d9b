package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// NarrowingAnalyzer guards the wire-codec bounds invariant: every integer
// that lands in a uint16/uint8 wire field must be range-checked first.
// This is exactly the defect class behind the 64KiB frame-length wrap bug
// fixed in PR 1 (a frame of total length 1<<16 truncated to 0 on the
// wire). A conversion counts as checked when the enclosing function
// compares the converted expression against a bound (any comparison
// mentioning the same expression), when the operand is a constant that
// fits, or when a //lint:ignore narrowing comment vouches for it.
var NarrowingAnalyzer = &Analyzer{
	Name:      "narrowing",
	Doc:       "flags unchecked int→uint16/uint8 conversions in the wire codec",
	Paths:     []string{"internal/ofwire"},
	SkipTests: true,
	Run:       runNarrowing,
}

func runNarrowing(p *Pass) {
	// Function by function, so guard detection stays local.
	p.FuncBodies(func(body *ast.BlockStmt) { checkNarrowingFunc(p, body) })
}

func checkNarrowingFunc(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		tv, ok := p.Pkg.Info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		dst, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || (dst.Kind() != types.Uint16 && dst.Kind() != types.Uint8) {
			return true
		}
		arg := call.Args[0]
		argTV := p.Pkg.Info.Types[arg]
		if argTV.Value != nil {
			// Constant operand: flag only if it cannot be represented.
			if representable(argTV.Value, dst.Kind()) {
				return true
			}
			p.Reportf(call.Pos(), "constant %s overflows %s", argTV.Value, dst)
			return true
		}
		src, ok := argTV.Type.Underlying().(*types.Basic)
		if !ok || !narrows(src.Kind(), dst.Kind()) {
			return true
		}
		if guardedBefore(p, body, arg, call.Pos()) {
			return true
		}
		p.Reportf(call.Pos(),
			"unchecked narrowing conversion %s → %s; range-check the value first (64KiB-wrap bug class)",
			src, dst)
		return true
	})
}

// narrows reports whether a src kind can hold values a dst kind cannot.
func narrows(src, dst types.BasicKind) bool {
	wider := map[types.BasicKind]bool{
		types.Int: true, types.Int32: true, types.Int64: true,
		types.Uint: true, types.Uint32: true, types.Uint64: true,
		types.Uintptr: true,
	}
	if dst == types.Uint8 {
		wider[types.Int16] = true
		wider[types.Uint16] = true
	}
	return wider[src]
}

func representable(v constant.Value, dst types.BasicKind) bool {
	if v.Kind() != constant.Int {
		return false
	}
	i, ok := constant.Int64Val(v)
	if !ok {
		return false
	}
	switch dst {
	case types.Uint8:
		return i >= 0 && i <= 0xFF
	case types.Uint16:
		return i >= 0 && i <= 0xFFFF
	}
	return false
}

// guardedBefore reports whether the function body contains, before pos, a
// comparison mentioning the converted expression — the mechanical
// signature of a bounds check such as "if total >= MaxMessageLen".
func guardedBefore(p *Pass, body *ast.BlockStmt, arg ast.Expr, pos token.Pos) bool {
	want := types.ExprString(arg)
	guarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		if guarded {
			return false
		}
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || bin.Pos() >= pos {
			return true
		}
		switch bin.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			if types.ExprString(bin.X) == want || types.ExprString(bin.Y) == want {
				guarded = true
				return false
			}
		}
		return true
	})
	return guarded
}
