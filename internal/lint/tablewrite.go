package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// TablewriteAnalyzer keeps the agent's one-writer rule (DESIGN.md §17): in
// internal/core only the commit method inserts into or deletes from a carved
// table, so every write goes in the order commit gives a plan. It flags every
// type-resolved use of (*tcam.Table).Insert, InsertRanked, Delete or
// DeleteAll — a call, a method value or a method expression — anywhere else
// in the package's non-test code. Reads and the in-place ModifyAction stay
// free.
var TablewriteAnalyzer = &Analyzer{
	Name:      "tablewrite",
	Doc:       "flags internal/core code outside commit that inserts into or deletes from a tcam.Table",
	Paths:     []string{"internal/core"},
	SkipTests: true,
	Run:       runTablewrite,
}

var tableWrites = map[string]bool{"Insert": true, "InsertRanked": true, "Delete": true, "DeleteAll": true}

func runTablewrite(p *Pass) {
	for _, file := range p.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return n.Recv == nil || n.Name.Name != "commit"
			case *ast.SelectorExpr:
				if s := p.Pkg.Info.Selections[n]; s != nil && isTableWrite(s.Obj()) {
					p.Reportf(n.Sel.Pos(), "tcam.Table.%s outside commit: plan the write through Agent.write", n.Sel.Name)
				}
			}
			return true
		})
	}
}

// isTableWrite reports whether obj is one of the write methods of the TCAM
// model's Table.
func isTableWrite(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || !tableWrites[fn.Name()] || fn.Pkg() == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	path := fn.Pkg().Path()
	return ok && named.Obj().Name() == "Table" && (path == "internal/tcam" || strings.HasSuffix(path, "/internal/tcam"))
}
