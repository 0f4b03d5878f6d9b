// Package lint implements hermes-vet: project-specific static analysis
// enforcing invariants the Go compiler cannot see but Hermes's guarantees
// depend on (DESIGN.md §8.2 lists them; hermes-lint -list prints them).
//
// The package is stdlib-only (go/parser, go/ast, go/types and the source
// importer); it loads packages straight from the tree so it works offline
// with zero module downloads, exactly like the rest of the module.
//
// Architecturally it is a small analysis engine rather than a bag of AST
// walks: packages load in parallel into a Program, which lazily builds
// per-function control-flow graphs (cfg.go), a module-wide call graph
// (callgraph.go) and shared interprocedural summaries (memoized via
// Program.Cached), and analyzers run concurrently against a Pass that
// exposes all of it. Findings are stably sorted and render as text.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
	"sync"
)

// Finding is one analyzer hit, addressable as file:line:col.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// Analyzer is one independently testable check.
type Analyzer struct {
	Name string
	Doc  string

	// Paths restricts the analyzer to packages whose import path (with
	// any external-test "_test" suffix stripped) ends in one of these
	// suffixes. Empty means every package.
	Paths []string
	// SkipTests excludes _test.go files.
	SkipTests bool
	// SkipMain excludes package main (commands and examples are not
	// library code).
	SkipMain bool

	Run func(*Pass)
}

// Program is the shared analysis state for one Run: every loaded package
// plus lazily built, memoized cross-cutting structures. All methods are
// safe for concurrent use by analyzers running in parallel.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	// analyzerNames is the suite under execution, for directive
	// validation.
	analyzerNames map[string]bool

	cgOnce sync.Once
	cg     *CallGraph

	mu    sync.Mutex
	cfgs  map[*ast.BlockStmt]*CFG
	cache map[string]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	val  any
}

// CallGraph returns the module-wide call graph, built on first use.
func (prog *Program) CallGraph() *CallGraph {
	prog.cgOnce.Do(func() { prog.cg = BuildCallGraph(prog.Pkgs) })
	return prog.cg
}

// FuncCFG returns the (cached) control-flow graph for a function body.
func (prog *Program) FuncCFG(body *ast.BlockStmt) *CFG {
	prog.mu.Lock()
	c, ok := prog.cfgs[body]
	prog.mu.Unlock()
	if ok {
		return c
	}
	c = BuildCFG(body)
	prog.mu.Lock()
	prog.cfgs[body] = c
	prog.mu.Unlock()
	return c
}

// Cached memoizes an expensive program-wide computation (interprocedural
// summaries) under a key, running build exactly once across all analyzer
// goroutines.
func (prog *Program) Cached(key string, build func() any) any {
	prog.mu.Lock()
	e, ok := prog.cache[key]
	if !ok {
		e = &cacheEntry{}
		prog.cache[key] = e
	}
	prog.mu.Unlock()
	e.once.Do(func() { e.val = build() })
	return e.val
}

// KnownAnalyzer reports whether name belongs to the suite under execution
// (used by the lintdirective analyzer to validate //lint:ignore targets).
func (prog *Program) KnownAnalyzer(name string) bool {
	return name == "all" || prog.analyzerNames[name]
}

// Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Prog     *Program

	findings []Finding
}

// Files returns the package files this analyzer should inspect, honoring
// the analyzer's test-file filters.
func (p *Pass) Files() []*ast.File {
	var out []*ast.File
	for _, f := range p.Pkg.Files {
		if p.InScope(f) {
			out = append(out, f)
		}
	}
	return out
}

// FuncBodies calls check on the body of every function declaration and
// function literal in Files(), each analyzed on its own.
func (p *Pass) FuncBodies(check func(body *ast.BlockStmt)) {
	for _, file := range p.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					check(fn.Body)
				}
			case *ast.FuncLit:
				check(fn.Body)
			}
			return true
		})
	}
}

// FuncCFG returns the cached control-flow graph for a function body.
func (p *Pass) FuncCFG(body *ast.BlockStmt) *CFG { return p.Prog.FuncCFG(body) }

// InScope applies the analyzer's test-file filter to a file or
// declaration — the call-graph analyzers iterate graph nodes rather than
// Files() and must honor the same SkipTests contract.
func (p *Pass) InScope(n ast.Node) bool {
	return !p.Analyzer.SkipTests || !p.IsTest(n)
}

// IsTest reports whether n sits in a _test.go file.
func (p *Pass) IsTest(n ast.Node) bool {
	return strings.HasSuffix(p.Fset.Position(n.Pos()).Filename, "_test.go")
}

// Reportf records one finding unless a //lint:ignore directive suppresses
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.Pkg.suppressed(p.Analyzer.Name, position) {
		return
	}
	p.findings = append(p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Pkg.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// pkgNameOf resolves an identifier used as a package qualifier (the "time"
// in time.Now) to its imported package path, or "".
func pkgNameOf(pkg *Package, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// Analyzers returns the full hermes-vet suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		NarrowingAnalyzer,
		LockcheckAnalyzer,
		WrapcheckAnalyzer,
		SnapshotSafetyAnalyzer,
		HotPathAllocAnalyzer,
		LintDirectiveAnalyzer,
	}
}

// appliesTo reports whether the analyzer runs on the package at all.
func (a *Analyzer) appliesTo(pkg *Package) bool {
	if a.SkipMain && pkg.Name == "main" {
		return false
	}
	if len(a.Paths) == 0 {
		return true
	}
	path := strings.TrimSuffix(pkg.Path, "_test")
	for _, suffix := range a.Paths {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

// Run applies every analyzer to every package — (analyzer, package) pairs
// execute concurrently against the shared Program — and returns the
// stably sorted findings.
func Run(analyzers []*Analyzer, pkgs []*Package, fset *token.FileSet) []Finding {
	prog := &Program{
		Fset:          fset,
		Pkgs:          pkgs,
		analyzerNames: make(map[string]bool, len(analyzers)),
		cfgs:          make(map[*ast.BlockStmt]*CFG),
		cache:         make(map[string]*cacheEntry),
	}
	for _, a := range analyzers {
		prog.analyzerNames[a.Name] = true
	}

	var (
		mu       sync.Mutex
		findings []Finding
		wg       sync.WaitGroup
	)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !a.appliesTo(pkg) {
				continue
			}
			wg.Add(1)
			go func(a *Analyzer, pkg *Package) {
				defer wg.Done()
				pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, Prog: prog}
				a.Run(pass)
				mu.Lock()
				findings = append(findings, pass.findings...)
				mu.Unlock()
			}(a, pkg)
		}
	}
	wg.Wait()

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings
}

// WriteText renders findings one per line for terminals and CI logs.
func WriteText(w io.Writer, findings []Finding) {
	for _, f := range findings {
		fmt.Fprintln(w, f)
	}
}
