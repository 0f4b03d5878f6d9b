// Package directive is the lintdirective corpus: a suppression must name a
// running analyzer and carry reason text, and an annotation must use a
// known verb, sit in a function's doc comment and, for coldpath, give a
// reason. Directives cannot suppress these findings about themselves.
package directive

func directives() {
	a := 1
	_ = a /* want:lintdirective */ //lint:ignore determinism
	b := 2
	_ = b /* want:lintdirective */ //lint:ignore nosuchpass typo'd names suppress nothing
	c := 3
	_ = c /* want:lintdirective */ //lint:ignore
	d := 4
	_ = d //lint:ignore lockcheck corpus: a justified suppression with reason text is clean
}

var _ = directives

// A coldpath must say why its callee may allocate.
/* want:lintdirective */ //hermes:coldpath
func coldWithoutReason() {}

// A misspelled verb would silently drop a root.
/* want:lintdirective */ //hermes:hotpth
func misspelledRoot() {}

func misplacedRoot() {
	_ = 0 /* want:lintdirective */ //hermes:hotpath
}
