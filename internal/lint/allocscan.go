package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AllocscanAnalyzer guards the zero-allocation packet path: Table.Lookup
// runs per simulated packet and the agent's snapshot read path promises 0
// allocs/op (TestRuleIndexLookupZeroAllocs, TestTrieLookupZeroAllocs). A stray
// make(map...), growing append, or map/slice composite literal inside a
// lookup-path function turns every packet into a heap allocation and a GC
// assist — a regression benchmarks catch late and this check catches at
// lint time. Mutators (Insert, Delete, Reconcile, ...) are free to
// allocate; only functions on the per-packet path are scanned.
//
// The obs record path is held to the same standard: Record/Inc/Add/Set run
// on every flow-mod and promise 0 allocs/op (BenchmarkHistogramRecord and
// friends), so inside internal/obs the scanned set is the record-path
// functions instead of the lookup ones. Snapshot, exposition, and capture
// paths allocate freely.
var AllocscanAnalyzer = &Analyzer{
	Name:       "allocscan",
	Doc:        "flags per-call heap allocation in the packet-lookup and metric-record hot paths",
	DedupGroup: "alloc",
	Paths: []string{
		"internal/tcam",
		"internal/classifier",
		"internal/obs",
		"internal/rulecache",
	},
	SkipTests: true,
	Run:       runAllocscan,
}

// hotPathFunc reports whether a function is on the per-packet lookup path:
// anything named *Lookup*/*lookup* plus the iterators' Next.
func hotPathFunc(name string) bool {
	return strings.Contains(name, "Lookup") || strings.Contains(name, "lookup") ||
		name == "Next"
}

// obsRecordFuncs are the per-sample record-path functions of internal/obs.
// Exact names, not substrings: Snapshot/Capture/registry code shares the
// package and is allowed to allocate.
var obsRecordFuncs = map[string]bool{
	"Record":         true,
	"RecordDuration": true,
	"Inc":            true,
	"Add":            true,
	"Set":            true,
	"bucketIndex":    true,
	"shardHint":      true,
}

// cacheSampleFuncs are the per-packet sampling hooks of internal/rulecache
// (DESIGN.md §16): they ride the lookup fast path, so like the obs record
// path they carry a zero-alloc budget. The fold runs under the agent lock
// but inside the tick, so it keeps the budget too. Rebalance, snapshot,
// and registration code in the same package allocates freely.
var cacheSampleFuncs = map[string]bool{
	"SampleHW":    true,
	"SampleSoft":  true,
	"RecordMiss":  true,
	"RecordHit":   true,
	"samplePoint": true,
	"FoldSamples": true,
}

// isRulecachePath reports whether the package is internal/rulecache
// (module- or corpus-relative).
func isRulecachePath(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	return path == "internal/rulecache" || strings.HasSuffix(path, "/internal/rulecache")
}

func runAllocscan(p *Pass) {
	hot := hotPathFunc
	if path := strings.TrimSuffix(p.Pkg.Path, "_test"); path == "internal/obs" ||
		strings.HasSuffix(path, "/internal/obs") {
		hot = func(name string) bool { return obsRecordFuncs[name] }
	} else if isRulecachePath(path) {
		hot = func(name string) bool { return hotPathFunc(name) || cacheSampleFuncs[name] }
	}
	for _, file := range p.Files() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hot(fn.Name.Name) {
				continue
			}
			scanAllocs(p, fn)
		}
	}
}

func scanAllocs(p *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			id, ok := n.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			if _, builtin := p.Pkg.Info.Uses[id].(*types.Builtin); !builtin {
				return true
			}
			switch id.Name {
			case "make":
				p.Reportf(n.Pos(),
					"%s allocates with make per call; hoist the allocation into the index or table state",
					fn.Name.Name)
			case "append":
				p.Reportf(n.Pos(),
					"%s grows a slice per call; lookup must reuse preallocated state",
					fn.Name.Name)
			}
		case *ast.CompositeLit:
			t := p.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map, *types.Slice:
				p.Reportf(n.Pos(),
					"%s builds a %s literal per call; lookup must not allocate",
					fn.Name.Name, typeKind(t))
			}
		}
		return true
	})
}

func typeKind(t types.Type) string {
	if _, ok := t.Underlying().(*types.Map); ok {
		return "map"
	}
	return "slice"
}
