package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// This file owns the two comment directives the suite reads:
//
//   - "//lint:ignore <analyzer>[,<analyzer>...] <reason>" suppresses the
//     named analyzers' findings (or every analyzer's, for "all") on its own
//     line and on the following line, so both trailing comments and
//     comments-above work;
//   - "//hermes:hotpath" in a function's doc comment makes the function a
//     zero-alloc root, and "//hermes:coldpath <reason>" in a callee's doc
//     comment stops that budget at the callee (hotpathalloc.go).
//
// Both are parsed by directiveOf alone, so the suppression table and the
// lintdirective analyzer cannot disagree about what a comment says.

const ignoreName = "lint:ignore"

// directiveOf splits a directive comment into its name ("lint:ignore",
// "hermes:hotpath", ...) and the words after it; ok is false for every
// other comment.
func directiveOf(c *ast.Comment) (name string, args []string, ok bool) {
	fields := strings.Fields(strings.TrimPrefix(c.Text, "//"))
	if len(fields) == 0 || (fields[0] != ignoreName && !strings.HasPrefix(fields[0], "hermes:")) {
		return "", nil, false
	}
	return fields[0], fields[1:], true
}

// annotated reports whether decl's doc comment carries //hermes:<verb>.
func annotated(decl *ast.FuncDecl, verb string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if name, _, ok := directiveOf(c); ok && name == "hermes:"+verb {
			return true
		}
	}
	return false
}

// ignoreDirective is one analyzer named by a parsed //lint:ignore.
type ignoreDirective struct {
	analyzer string
	line     int
}

func parseIgnores(fset *token.FileSet, files []*ast.File) map[string][]ignoreDirective {
	out := make(map[string][]ignoreDirective)
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				name, args, ok := directiveOf(c)
				if !ok || name != ignoreName || len(args) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, analyzer := range strings.Split(args[0], ",") {
					out[pos.Filename] = append(out[pos.Filename],
						ignoreDirective{analyzer: analyzer, line: pos.Line})
				}
			}
		}
	}
	return out
}

func (p *Package) suppressed(analyzer string, pos token.Position) bool {
	if analyzer == "lintdirective" {
		// A directive cannot vouch for itself: bare or mistargeted ignores
		// stay visible even under //lint:ignore all.
		return false
	}
	for _, d := range p.ignores[pos.Filename] {
		if d.analyzer != analyzer && d.analyzer != "all" {
			continue
		}
		if d.line == pos.Line || d.line == pos.Line-1 {
			return true
		}
	}
	return false
}

// LintDirectiveAnalyzer polices both directives. Every //lint:ignore must
// name an analyzer this suite actually runs (a typo silently suppresses
// nothing and rots) and must carry reason text (an unexplained suppression
// is indistinguishable from a silenced bug — the reason is the reviewable
// artifact). Bare ignores still suppress, so a stale tree keeps linting
// the same, but they are themselves findings until justified. Every
// //hermes: annotation must use a known verb and sit in a function's doc
// comment, and a coldpath must say why: a misspelled or misplaced hotpath
// would otherwise drop its root without a word.
//
// Findings of this analyzer are exempt from suppression (see
// Package.suppressed): a directive cannot vouch for itself.
var LintDirectiveAnalyzer = &Analyzer{
	Name: "lintdirective",
	Doc:  "flags //lint:ignore directives with unknown analyzers or missing reason text, and malformed //hermes: annotations",
	Run:  runLintDirective,
}

func runLintDirective(p *Pass) {
	for _, file := range p.Files() {
		onFunc := make(map[*ast.Comment]bool)
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Doc != nil {
				for _, c := range fn.Doc.List {
					onFunc[c] = true
				}
			}
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				name, args, ok := directiveOf(c)
				switch {
				case !ok:
				case name == ignoreName:
					checkIgnore(p, c, args)
				default:
					checkAnnotation(p, c, strings.TrimPrefix(name, "hermes:"), args, onFunc[c])
				}
			}
		}
	}
}

func checkIgnore(p *Pass, c *ast.Comment, args []string) {
	if len(args) == 0 {
		p.Reportf(c.Pos(), "//lint:ignore names no analyzer; write //lint:ignore <analyzer> <reason>")
		return
	}
	for _, name := range strings.Split(args[0], ",") {
		if !p.Prog.KnownAnalyzer(name) {
			p.Reportf(c.Pos(), "//lint:ignore names unknown analyzer %q; this directive suppresses nothing", name)
		}
	}
	if len(args) < 2 {
		p.Reportf(c.Pos(), "bare //lint:ignore %s without reason text; justify the suppression", args[0])
	}
}

func checkAnnotation(p *Pass, c *ast.Comment, verb string, args []string, onFunc bool) {
	switch {
	case verb != "hotpath" && verb != "coldpath":
		p.Reportf(c.Pos(), "unknown annotation //hermes:%s; the verbs are hotpath and coldpath", verb)
	case !onFunc:
		p.Reportf(c.Pos(), "//hermes:%s outside a function's doc comment marks nothing", verb)
	case verb == "coldpath" && len(args) == 0:
		p.Reportf(c.Pos(), "//hermes:coldpath without reason text; say why the callee may allocate")
	}
}
