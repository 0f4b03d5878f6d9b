package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// WrapcheckAnalyzer guards error-chain preservation: library code that
// formats an error into a new error with fmt.Errorf must use %w, so
// callers can still errors.Is/As against the typed sentinels the fleet
// and codec rely on (ErrTableFull, ErrClientClosed, remote *ErrorBody, …).
// A %v or %s flattens the chain to text and silently breaks them.
var WrapcheckAnalyzer = &Analyzer{
	Name:      "wrapcheck",
	Doc:       "flags fmt.Errorf calls formatting an error with %v/%s instead of %w",
	SkipTests: true,
	SkipMain:  true,
	Run:       runWrapcheck,
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func runWrapcheck(p *Pass) {
	for _, file := range p.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Errorf" || pkgNameOf(p.Pkg, sel.X) != "fmt" {
				return true
			}
			format, ok := constantString(p, call.Args[0])
			if !ok {
				return true
			}
			verbs, ok := parseVerbs(format)
			if !ok {
				return true // indexed or starred format: out of scope
			}
			for _, v := range verbs {
				argIdx := 1 + v.arg
				if v.letter != 'v' && v.letter != 's' {
					continue
				}
				if argIdx >= len(call.Args) {
					continue
				}
				arg := call.Args[argIdx]
				t := p.TypeOf(arg)
				if t == nil || !types.Implements(t, errorIface) {
					continue
				}
				p.Reportf(arg.Pos(),
					"error formatted with %%%c breaks the error chain; use %%w", v.letter)
			}
			return true
		})
	}
}

func constantString(p *Pass, e ast.Expr) (string, bool) {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// verb is one formatting directive mapped to its sequential argument.
type verb struct {
	letter byte
	arg    int
}

// parseVerbs extracts the verbs of a fmt format string together with the
// argument index each consumes. It bails out (ok=false) on explicit
// argument indexes (%[1]v) and starred widths (%*d), which this codebase
// does not use.
func parseVerbs(format string) ([]verb, bool) {
	var verbs []verb
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// flags, width, precision
		for i < len(format) {
			c := format[i]
			if c == '+' || c == '-' || c == '#' || c == ' ' || c == '0' ||
				c == '.' || (c >= '1' && c <= '9') {
				i++
				continue
			}
			break
		}
		if i >= len(format) {
			break
		}
		switch c := format[i]; {
		case c == '%':
			// literal percent, consumes nothing
		case c == '[' || c == '*':
			return nil, false
		default:
			verbs = append(verbs, verb{letter: c, arg: arg})
			arg++
		}
	}
	return verbs, true
}
