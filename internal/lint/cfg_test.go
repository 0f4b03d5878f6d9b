package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses `src` (a complete func f declaration) and returns the
// body of f. CFG construction and the dataflow solver are pure AST
// transforms, so no type information is needed.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "cfg_test_input.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parsing %q: %v", src, err)
	}
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "f" {
			return fn.Body
		}
	}
	t.Fatalf("no func f in %q", src)
	return nil
}

func blocksOfKind(cfg *CFG, kind string) []*Block {
	var out []*Block
	for _, b := range cfg.Blocks {
		if b.Kind == kind {
			out = append(out, b)
		}
	}
	return out
}

func oneBlock(t *testing.T, cfg *CFG, kind string) *Block {
	t.Helper()
	bs := blocksOfKind(cfg, kind)
	if len(bs) != 1 {
		t.Fatalf("want exactly one %q block, got %d", kind, len(bs))
	}
	return bs[0]
}

func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

func TestCFGStructure(t *testing.T) {
	cases := []struct {
		name string
		src  string
		chk  func(t *testing.T, cfg *CFG)
	}{
		{
			name: "straight line falls off the end",
			src:  `func f() { x := 1; _ = x }`,
			chk: func(t *testing.T, cfg *CFG) {
				if len(cfg.Entry.Nodes) != 2 {
					t.Errorf("entry nodes = %d, want 2", len(cfg.Entry.Nodes))
				}
				if cfg.Entry.Term != nil {
					t.Error("straight-line entry must not have a terminator")
				}
				if !hasEdge(cfg.Entry, cfg.Exit) {
					t.Error("missing entry→exit fall-off edge")
				}
			},
		},
		{
			name: "if with else: both arms join, no cond→join edge",
			src:  `func f(c bool) { if c { a() } else { b() }; d() }`,
			chk: func(t *testing.T, cfg *CFG) {
				then, els, join := oneBlock(t, cfg, "if.then"), oneBlock(t, cfg, "if.else"), oneBlock(t, cfg, "if.join")
				if !hasEdge(cfg.Entry, then) || !hasEdge(cfg.Entry, els) {
					t.Error("cond block must branch to both arms")
				}
				if hasEdge(cfg.Entry, join) {
					t.Error("with an else, control cannot skip both arms")
				}
				if !hasEdge(then, join) || !hasEdge(els, join) {
					t.Error("both arms must reach the join")
				}
			},
		},
		{
			name: "if without else: cond edge to join",
			src:  `func f(c bool) { if c { a() }; d() }`,
			chk: func(t *testing.T, cfg *CFG) {
				join := oneBlock(t, cfg, "if.join")
				if !hasEdge(cfg.Entry, join) {
					t.Error("missing cond→join edge for the false branch")
				}
			},
		},
		{
			name: "both arms return: join unreachable, exit preds are returns",
			src:  `func f(c bool) { if c { return }; return }`,
			chk: func(t *testing.T, cfg *CFG) {
				join := oneBlock(t, cfg, "if.join")
				// The false branch reaches the join (it holds the second
				// return); the then arm must not.
				then := oneBlock(t, cfg, "if.then")
				if hasEdge(then, join) {
					t.Error("returning arm must not fall into the join")
				}
				for _, p := range cfg.Exit.Preds {
					if p.Term == nil {
						t.Errorf("exit pred %q has no terminator; want explicit returns only", p.Kind)
					}
				}
			},
		},
		{
			name: "for loop: cond branches, post closes the back edge",
			src:  `func f(n int) { for i := 0; i < n; i++ { a() }; d() }`,
			chk: func(t *testing.T, cfg *CFG) {
				head := oneBlock(t, cfg, "for.head")
				body := oneBlock(t, cfg, "for.body")
				post := oneBlock(t, cfg, "for.post")
				exit := oneBlock(t, cfg, "for.exit")
				if !hasEdge(head, body) || !hasEdge(head, exit) {
					t.Error("loop head must branch to body and exit")
				}
				if !hasEdge(body, post) || !hasEdge(post, head) {
					t.Error("body→post→head back edge missing")
				}
			},
		},
		{
			name: "range loop: head holds the range expr, body loops to head",
			src:  `func f(xs []int) { for _, x := range xs { use(x) } }`,
			chk: func(t *testing.T, cfg *CFG) {
				head := oneBlock(t, cfg, "range.head")
				body := oneBlock(t, cfg, "range.body")
				exit := oneBlock(t, cfg, "range.exit")
				if len(head.Nodes) != 1 {
					t.Errorf("range head nodes = %d, want 1 (the range expression)", len(head.Nodes))
				}
				if !hasEdge(head, body) || !hasEdge(head, exit) || !hasEdge(body, head) {
					t.Error("range head/body/exit wiring wrong")
				}
			},
		},
		{
			name: "labeled break leaves the outer loop",
			src: `func f() {
outer:
	for {
		for {
			break outer
		}
	}
	done()
}`,
			chk: func(t *testing.T, cfg *CFG) {
				exits := blocksOfKind(cfg, "for.exit")
				if len(exits) != 2 {
					t.Fatalf("want 2 for.exit blocks, got %d", len(exits))
				}
				outerExit := exits[0] // created before the inner loop's
				var brk *Block
				for _, b := range cfg.Blocks {
					if bs, ok := b.Term.(*ast.BranchStmt); ok && bs.Label != nil {
						brk = b
					}
				}
				if brk == nil {
					t.Fatal("no block terminated by the labeled break")
				}
				if !hasEdge(brk, outerExit) {
					t.Error("break outer must edge to the outer loop exit")
				}
				if !outerExit.Reachable() {
					t.Error("outer exit must be reachable via the labeled break")
				}
			},
		},
		{
			name: "goto edges back to its label block",
			src: `func f() {
	i := 0
loop:
	i++
	if i < 3 {
		goto loop
	}
}`,
			chk: func(t *testing.T, cfg *CFG) {
				label := oneBlock(t, cfg, "label.loop")
				var gt *Block
				for _, b := range cfg.Blocks {
					if bs, ok := b.Term.(*ast.BranchStmt); ok && bs.Tok == token.GOTO {
						gt = b
					}
				}
				if gt == nil {
					t.Fatal("no block terminated by goto")
				}
				if !hasEdge(gt, label) {
					t.Error("goto must edge to the label block")
				}
			},
		},
		{
			name: "switch: fallthrough chains clauses, no default edges to join",
			src: `func f(x int) {
	switch x {
	case 1:
		a()
		fallthrough
	case 2:
		b()
	}
	c()
}`,
			chk: func(t *testing.T, cfg *CFG) {
				cases := blocksOfKind(cfg, "switch.case")
				if len(cases) != 2 {
					t.Fatalf("want 2 case blocks, got %d", len(cases))
				}
				join := oneBlock(t, cfg, "switch.join")
				if !hasEdge(cases[0], cases[1]) {
					t.Error("fallthrough must chain case 1 into case 2")
				}
				if hasEdge(cases[0], join) {
					t.Error("falling-through clause must not also edge to the join")
				}
				if !hasEdge(cfg.Entry, join) {
					t.Error("switch without default needs a dispatch→join edge")
				}
			},
		},
		{
			name: "select: one block per comm, default kept non-blocking",
			src: `func f(ch chan int) {
	select {
	case v := <-ch:
		use(v)
	default:
	}
	d()
}`,
			chk: func(t *testing.T, cfg *CFG) {
				comms := blocksOfKind(cfg, "select.comm")
				if len(comms) != 2 {
					t.Fatalf("want 2 comm blocks, got %d", len(comms))
				}
				join := oneBlock(t, cfg, "select.join")
				for _, c := range comms {
					if !hasEdge(cfg.Entry, c) || !hasEdge(c, join) {
						t.Error("every clause must be dispatch-reachable and rejoin")
					}
				}
			},
		},
		{
			name: "empty select blocks forever: edge to exit, rest dead",
			src:  `func f() { select {}; d() }`,
			chk: func(t *testing.T, cfg *CFG) {
				if !hasEdge(cfg.Entry, cfg.Exit) {
					t.Error("select{} must edge to exit (the goroutine never continues)")
				}
				dead := blocksOfKind(cfg, "dead")
				if len(dead) != 1 || dead[0].Reachable() {
					t.Error("statement after select{} must be an unreachable dead block")
				}
			},
		},
		{
			name: "panic terminates the block with an exit edge",
			src:  `func f(c bool) { if c { panic("boom") }; d() }`,
			chk: func(t *testing.T, cfg *CFG) {
				then := oneBlock(t, cfg, "if.then")
				if then.Term == nil {
					t.Fatal("panic must terminate its block")
				}
				if !hasEdge(then, cfg.Exit) {
					t.Error("panic needs an edge to exit")
				}
				// The fall-off path (d() in the join) has no terminator, so
				// exit must see one pred with Term and one without — the
				// distinction lockcheck uses to exempt panic paths.
				var withTerm, withoutTerm int
				for _, p := range cfg.Exit.Preds {
					if p.Term != nil {
						withTerm++
					} else {
						withoutTerm++
					}
				}
				if withTerm != 1 || withoutTerm != 1 {
					t.Errorf("exit preds with/without terminator = %d/%d, want 1/1", withTerm, withoutTerm)
				}
			},
		},
		{
			name: "defer is a straight-line node, not a terminator",
			src:  `func f() { defer cleanup(); d() }`,
			chk: func(t *testing.T, cfg *CFG) {
				if len(cfg.Entry.Nodes) != 2 {
					t.Fatalf("entry nodes = %d, want 2", len(cfg.Entry.Nodes))
				}
				if _, ok := cfg.Entry.Nodes[0].(*ast.DeferStmt); !ok {
					t.Error("defer must appear as an ordinary node")
				}
				if cfg.Entry.Term != nil {
					t.Error("defer must not terminate the block")
				}
			},
		},
		{
			name: "code after return is dead",
			src:  `func f() { return; d() }`,
			chk: func(t *testing.T, cfg *CFG) {
				dead := blocksOfKind(cfg, "dead")
				if len(dead) != 1 {
					t.Fatalf("want 1 dead block, got %d", len(dead))
				}
				if dead[0].Reachable() {
					t.Error("dead block must not be reachable")
				}
				if !cfg.Entry.Reachable() {
					t.Error("entry must always count as reachable")
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.chk(t, BuildCFG(parseBody(t, c.src)))
		})
	}
}

// defsTransfer is the toy analysis the framework tests run: `x := ...`
// generates the fact "x", `x = ...` kills it. Enough to distinguish may
// from must merges and to watch loop facts converge.
func defsTransfer(n ast.Node, in Set[string]) Set[string] {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return in
	}
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		if as.Tok == token.DEFINE {
			in.Add(id.Name)
		} else {
			in.Del(id.Name)
		}
	}
	return in
}

func TestForwardBranchMeet(t *testing.T) {
	body := parseBody(t, `func f(c bool) {
	if c {
		a := 1
		use(a)
	} else {
		b := 2
		use(b)
	}
	end()
}`)
	cfg := BuildCFG(body)
	join := oneBlock(t, cfg, "if.join")

	must := Forward(cfg, NewSet("seed"), defsTransfer)
	if in := must.In[join]; !in.Has("seed") || in.Has("a") || in.Has("b") {
		t.Errorf("intersect at join = %v, want the entry fact but neither a nor b (each defined on one arm only)", in)
	}
}

func TestForwardLoopFixpoint(t *testing.T) {
	body := parseBody(t, `func f(n int) {
	for i := 0; i < n; i++ {
		x := 1
		use(x)
	}
	end()
}`)
	cfg := BuildCFG(body)
	head := oneBlock(t, cfg, "for.head")
	exit := oneBlock(t, cfg, "for.exit")

	must := Forward(cfg, NewSet[string](), defsTransfer)
	if in := must.In[head]; !in.Has("i") || in.Has("x") {
		t.Errorf("intersect at loop head = %v, want i only (zero-iteration path has no x)", in)
	}
	if in := must.In[exit]; !in.Has("i") || in.Has("x") {
		t.Errorf("intersect at loop exit = %v, want i only", in)
	}
}

func TestForwardBoundaryAndUnreachable(t *testing.T) {
	body := parseBody(t, `func f() { return; d() }`)
	cfg := BuildCFG(body)
	res := Forward(cfg, NewSet("seed"), defsTransfer)
	if in := res.In[cfg.Entry]; !in.Has("seed") {
		t.Errorf("entry in-set %v must contain the boundary fact", in)
	}
	dead := oneBlock(t, cfg, "dead")
	if res.In[dead] != nil {
		t.Errorf("unreachable block must keep the nil (top) in-set, got %v", res.In[dead])
	}
}
