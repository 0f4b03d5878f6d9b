package lint

import (
	"go/ast"
	"go/token"
)

// This file builds per-function control-flow graphs, the substrate of the
// hermes-vet dataflow analyses (DESIGN.md §8). The graph is
// statement-level: every block holds the AST nodes that execute in order
// (statements plus the condition expressions evaluated at its end), and
// edges follow Go control flow including loops with back edges,
// switch/select dispatch, fallthrough, labeled break/continue, goto, and
// the two ways a function leaves a block early — return and panic.
// Function literals are *not* inlined: a FuncLit nested in a body is a
// single opaque node here and gets its own CFG when analyzed.

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks in creation order; Blocks[0] is Entry, Blocks[1] is Exit.
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// Block is one straight-line run of AST nodes.
type Block struct {
	Index int
	// Kind labels the block's syntactic role ("entry", "exit", "body",
	// "if.then", "for.head", ...) for tests and debugging.
	Kind  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Term is the statement that explicitly ends the block — a
	// *ast.ReturnStmt, *ast.BranchStmt, or a panic-call *ast.ExprStmt —
	// or nil when control falls through to the successor. The exit
	// block's fall-off predecessors (Term == nil) are where "function
	// ends with X still held"-style diagnostics anchor.
	Term ast.Stmt
}

// Reachable reports whether the block has a path from the entry block.
// Blocks created for dead code (statements after a return) have no
// predecessors and are skipped by the dataflow analyses.
func (b *Block) Reachable() bool {
	return b.Kind == "entry" || len(b.Preds) > 0
}

type cfgBuilder struct {
	cfg *CFG
	// breakTo / continueTo are the current targets for unlabeled
	// break/continue; the label maps handle the labeled forms.
	breakTo    *Block
	continueTo *Block
	breakStack []*Block
	contStack  []*Block
	labelBreak map[string]*Block
	labelCont  map[string]*Block
	gotoTarget map[string]*Block
}

// BuildCFG constructs the graph for one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:        &CFG{},
		labelBreak: make(map[string]*Block),
		labelCont:  make(map[string]*Block),
		gotoTarget: make(map[string]*Block),
	}
	entry := b.newBlock("entry")
	exit := b.newBlock("exit")
	b.cfg.Entry, b.cfg.Exit = entry, exit
	last := b.stmts(body.List, entry)
	if last != nil {
		b.edge(last, exit)
	}
	for _, blk := range b.cfg.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// stmts threads a statement list through the graph starting at cur and
// returns the block control falls out of, or nil when every path leaves
// the list explicitly (return/branch/panic).
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *Block) *Block {
	for _, s := range list {
		if cur == nil {
			// Dead code after a terminator still gets blocks (they are
			// simply unreachable), so analyzers can choose to look.
			cur = b.newBlock("dead")
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

func (b *cfgBuilder) stmt(s ast.Stmt, cur *Block) *Block {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(st.List, cur)

	case *ast.LabeledStmt:
		// The labeled statement itself starts a fresh block so goto and
		// labeled continue have a stable target.
		target := b.gotoBlock(st.Label.Name)
		b.edge(cur, target)
		switch inner := st.Stmt.(type) {
		case *ast.ForStmt:
			return b.forStmt(inner, target, st.Label.Name)
		case *ast.RangeStmt:
			return b.rangeStmt(inner, target, st.Label.Name)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			return b.switchStmt(inner, target, st.Label.Name)
		case *ast.SelectStmt:
			return b.selectStmt(inner, target, st.Label.Name)
		default:
			return b.stmt(st.Stmt, target)
		}

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, st)
		cur.Term = st
		b.edge(cur, b.cfg.Exit)
		return nil

	case *ast.BranchStmt:
		if st.Tok == token.FALLTHROUGH {
			// Control continues into the next case clause; the switch
			// builder wires that edge. Not a real terminator.
			cur.Nodes = append(cur.Nodes, st)
			return cur
		}
		cur.Nodes = append(cur.Nodes, st)
		cur.Term = st
		switch st.Tok {
		case token.BREAK:
			if st.Label != nil {
				if t := b.labelBreak[st.Label.Name]; t != nil {
					b.edge(cur, t)
				}
			} else if b.breakTo != nil {
				b.edge(cur, b.breakTo)
			}
		case token.CONTINUE:
			if st.Label != nil {
				if t := b.labelCont[st.Label.Name]; t != nil {
					b.edge(cur, t)
				}
			} else if b.continueTo != nil {
				b.edge(cur, b.continueTo)
			}
		case token.GOTO:
			b.edge(cur, b.gotoBlock(st.Label.Name))
		}
		return nil

	case *ast.ExprStmt:
		cur.Nodes = append(cur.Nodes, st)
		if isPanicCall(st.X) {
			cur.Term = st
			b.edge(cur, b.cfg.Exit)
			return nil
		}
		return cur

	case *ast.IfStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur)
		}
		cur.Nodes = append(cur.Nodes, st.Cond)
		thenB := b.newBlock("if.then")
		b.edge(cur, thenB)
		thenEnd := b.stmts(st.Body.List, thenB)
		var elseEnd *Block
		hasElse := st.Else != nil
		if hasElse {
			elseB := b.newBlock("if.else")
			b.edge(cur, elseB)
			elseEnd = b.stmt(st.Else, elseB)
		}
		join := b.newBlock("if.join")
		if !hasElse {
			b.edge(cur, join)
		}
		if thenEnd != nil {
			b.edge(thenEnd, join)
		}
		if elseEnd != nil {
			b.edge(elseEnd, join)
		}
		return join

	case *ast.ForStmt:
		return b.forStmt(st, cur, "")

	case *ast.RangeStmt:
		return b.rangeStmt(st, cur, "")

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return b.switchStmt(s, cur, "")

	case *ast.SelectStmt:
		return b.selectStmt(st, cur, "")

	default:
		// Assign, decl, defer, go, send, incdec, empty: straight-line.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

func (b *cfgBuilder) forStmt(st *ast.ForStmt, cur *Block, label string) *Block {
	if st.Init != nil {
		cur = b.stmt(st.Init, cur)
	}
	head := b.newBlock("for.head")
	b.edge(cur, head)
	if st.Cond != nil {
		head.Nodes = append(head.Nodes, st.Cond)
	}
	body := b.newBlock("for.body")
	exit := b.newBlock("for.exit")
	b.edge(head, body)
	if st.Cond != nil {
		b.edge(head, exit)
	}
	post := head
	if st.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, st.Post)
		b.edge(post, head)
	}
	b.pushLoop(label, exit, post)
	bodyEnd := b.stmts(st.Body.List, body)
	b.popLoop(label)
	if bodyEnd != nil {
		b.edge(bodyEnd, post)
	}
	return exit
}

func (b *cfgBuilder) rangeStmt(st *ast.RangeStmt, cur *Block, label string) *Block {
	head := b.newBlock("range.head")
	head.Nodes = append(head.Nodes, st.X)
	b.edge(cur, head)
	body := b.newBlock("range.body")
	exit := b.newBlock("range.exit")
	b.edge(head, body)
	b.edge(head, exit)
	b.pushLoop(label, exit, head)
	bodyEnd := b.stmts(st.Body.List, body)
	b.popLoop(label)
	if bodyEnd != nil {
		b.edge(bodyEnd, head)
	}
	return exit
}

// switchStmt wires expression and type switches: the dispatch block
// branches to every clause, fallthrough chains clause bodies, and a
// missing default adds a dispatch→join edge (the switch may match
// nothing).
func (b *cfgBuilder) switchStmt(s ast.Stmt, cur *Block, label string) *Block {
	var clauses []ast.Stmt
	switch st := s.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur)
		}
		if st.Tag != nil {
			cur.Nodes = append(cur.Nodes, st.Tag)
		}
		clauses = st.Body.List
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur)
		}
		cur.Nodes = append(cur.Nodes, st.Assign)
		clauses = st.Body.List
	}
	join := b.newBlock("switch.join")
	b.pushSwitch(label, join)
	hasDefault := false
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock("switch.case")
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			cur.Nodes = append(cur.Nodes, e)
		}
		b.edge(cur, blocks[i])
		end := b.stmts(cc.Body, blocks[i])
		if end != nil {
			if fallsThrough(cc.Body) && i+1 < len(blocks) {
				b.edge(end, blocks[i+1])
			} else {
				b.edge(end, join)
			}
		}
	}
	if !hasDefault {
		b.edge(cur, join)
	}
	b.popSwitch(label)
	return join
}

func (b *cfgBuilder) selectStmt(st *ast.SelectStmt, cur *Block, label string) *Block {
	if len(st.Body.List) == 0 {
		// select{} blocks forever.
		cur.Term = st
		b.edge(cur, b.cfg.Exit)
		return nil
	}
	join := b.newBlock("select.join")
	b.pushSwitch(label, join)
	for _, c := range st.Body.List {
		cc := c.(*ast.CommClause)
		blk := b.newBlock("select.comm")
		b.edge(cur, blk)
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		if end := b.stmts(cc.Body, blk); end != nil {
			b.edge(end, join)
		}
	}
	b.popSwitch(label)
	return join
}

// --- loop/label bookkeeping ---------------------------------------------

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breakStack = append(b.breakStack, b.breakTo)
	b.contStack = append(b.contStack, b.continueTo)
	b.breakTo, b.continueTo = brk, cont
	if label != "" {
		b.labelBreak[label] = brk
		b.labelCont[label] = cont
	}
}

func (b *cfgBuilder) popLoop(label string) {
	b.breakTo = b.breakStack[len(b.breakStack)-1]
	b.continueTo = b.contStack[len(b.contStack)-1]
	b.breakStack = b.breakStack[:len(b.breakStack)-1]
	b.contStack = b.contStack[:len(b.contStack)-1]
	if label != "" {
		delete(b.labelBreak, label)
		delete(b.labelCont, label)
	}
}

// pushSwitch registers only a break target; continue passes through to the
// enclosing loop.
func (b *cfgBuilder) pushSwitch(label string, brk *Block) {
	b.breakStack = append(b.breakStack, b.breakTo)
	b.breakTo = brk
	if label != "" {
		b.labelBreak[label] = brk
	}
}

func (b *cfgBuilder) popSwitch(label string) {
	b.breakTo = b.breakStack[len(b.breakStack)-1]
	b.breakStack = b.breakStack[:len(b.breakStack)-1]
	if label != "" {
		delete(b.labelBreak, label)
	}
}

func (b *cfgBuilder) gotoBlock(label string) *Block {
	if blk, ok := b.gotoTarget[label]; ok {
		return blk
	}
	blk := b.newBlock("label." + label)
	b.gotoTarget[label] = blk
	return blk
}

// fallsThrough reports whether a case body ends in a fallthrough
// statement.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	t, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && t.Tok == token.FALLTHROUGH
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
