package lint

// cfg.go builds a lightweight intraprocedural control-flow graph over a
// function body (DESIGN.md §12). It is the substrate for the path-sensitive
// analyzers (pairdiscipline's must-pair dataflow, leak-path witnesses): each
// basic block carries its statements in execution order plus its successor
// edges, and conditional blocks remember their branch expression so a
// dataflow client can refine facts per edge (succs[0] is the true edge,
// succs[1] the false edge).
//
// The builder covers the full statement grammar the repository uses:
// if/else chains, for (all three clauses), range, switch (tagged and
// tagless, with fallthrough), type switch, select, labeled statements,
// break/continue (labeled and bare), goto, defer, go, and return. Calls that
// provably never return (builtin panic, os.Exit, log.Fatal*, runtime.Goexit)
// terminate their block with an edge to a dedicated panicExit block, so leak
// analyses can treat normal returns and panics differently.
//
// Tagless switches are lowered to a cascade of two-way conditional blocks —
// the same shape as an if/else chain — so the per-edge refinement that
// understands `case err != nil:` works on both spellings.

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// cfgBlock is one basic block: straight-line statements plus successors.
type cfgBlock struct {
	index int
	kind  string // "entry", "if.then", "for.body", ... (golden tests, messages)
	pos   token.Pos
	stmts []ast.Node
	succs []*cfgBlock

	// branchCond is the controlling expression when this block ends in a
	// two-way conditional: succs[0] is taken when it evaluates true,
	// succs[1] when false.
	branchCond ast.Expr
}

// funcCFG is the graph for one function body.
type funcCFG struct {
	blocks    []*cfgBlock
	entry     *cfgBlock
	exit      *cfgBlock // every return and the fall-off-the-end path
	panicExit *cfgBlock // paths ending in panic/os.Exit/log.Fatal
}

// cfgBuilder carries the construction state.
type cfgBuilder struct {
	cfg *funcCFG
	cur *cfgBlock

	// terminal reports whether a call never returns (panic, os.Exit, ...).
	// Injected so the golden tests can use a types-free matcher.
	terminal func(*ast.CallExpr) bool

	// breakTargets / continueTargets are innermost-last stacks; labeled
	// entries carry the label name, bare break/continue use the last entry.
	breakTargets    []branchTarget
	continueTargets []branchTarget

	// labelBlocks maps a label name to the block its statement starts, for
	// goto (created on demand so forward gotos resolve).
	labelBlocks map[string]*cfgBlock
}

type branchTarget struct {
	label string
	block *cfgBlock
}

// buildCFG constructs the CFG for body. terminal may be nil (no call is
// treated as terminating).
func buildCFG(body *ast.BlockStmt, terminal func(*ast.CallExpr) bool) *funcCFG {
	if terminal == nil {
		terminal = func(*ast.CallExpr) bool { return false }
	}
	b := &cfgBuilder{
		cfg:         &funcCFG{},
		terminal:    terminal,
		labelBlocks: make(map[string]*cfgBlock),
	}
	b.cfg.entry = b.newBlock("entry")
	b.cfg.entry.pos = body.Pos()
	b.cfg.exit = b.newBlock("exit")
	b.cfg.panicExit = b.newBlock("panic.exit")
	b.cur = b.cfg.entry
	b.stmtList(body.List)
	b.jump(b.cfg.exit) // fall off the end
	return b.cfg
}

func (b *cfgBuilder) newBlock(kind string) *cfgBlock {
	blk := &cfgBlock{index: len(b.cfg.blocks), kind: kind}
	b.cfg.blocks = append(b.cfg.blocks, blk)
	return blk
}

// jump adds an edge cur→to and leaves cur in a fresh unreachable block, so
// statements after a return/break still build without corrupting the graph.
func (b *cfgBuilder) jump(to *cfgBlock) {
	b.addEdge(b.cur, to)
	b.cur = b.newBlock("unreachable")
}

func (b *cfgBuilder) addEdge(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
}

func (b *cfgBuilder) add(n ast.Node) {
	if b.cur.pos == token.NoPos {
		b.cur.pos = n.Pos()
	}
	b.cur.stmts = append(b.cur.stmts, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// labelBlockFor returns (creating on demand) the block a label starts.
func (b *cfgBuilder) labelBlockFor(name string) *cfgBlock {
	if blk, ok := b.labelBlocks[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labelBlocks[name] = blk
	return blk
}

func (b *cfgBuilder) findTarget(stack []branchTarget, label string) *cfgBlock {
	if label == "" {
		if len(stack) == 0 {
			return nil
		}
		return stack[len(stack)-1].block
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.terminal(call) {
			b.jump(b.cfg.panicExit)
		}

	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt,
		*ast.GoStmt, *ast.DeferStmt, *ast.EmptyStmt:
		b.add(s)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.exit)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		b.cur.branchCond = s.Cond
		condBlock := b.cur
		then := b.newBlock("if.then")
		b.addEdge(condBlock, then)
		done := b.newBlock("if.done")
		b.cur = then
		b.stmtList(s.Body.List)
		b.addEdge(b.cur, done)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.addEdge(condBlock, els)
			b.cur = els
			b.stmt(s.Else)
			b.addEdge(b.cur, done)
		} else {
			b.addEdge(condBlock, done)
		}
		b.cur = done

	case *ast.ForStmt:
		b.buildFor(s, "")

	case *ast.RangeStmt:
		b.buildRange(s, "")

	case *ast.SwitchStmt:
		b.buildSwitch(s, "")

	case *ast.TypeSwitchStmt:
		b.buildTypeSwitch(s, "")

	case *ast.SelectStmt:
		b.buildSelect(s, "")

	case *ast.LabeledStmt:
		lb := b.labelBlockFor(s.Label.Name)
		lb.pos = s.Pos()
		b.addEdge(b.cur, lb)
		b.cur = lb
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt:
			b.buildFor(inner, s.Label.Name)
		case *ast.RangeStmt:
			b.buildRange(inner, s.Label.Name)
		case *ast.SwitchStmt:
			b.buildSwitch(inner, s.Label.Name)
		case *ast.TypeSwitchStmt:
			b.buildTypeSwitch(inner, s.Label.Name)
		case *ast.SelectStmt:
			b.buildSelect(inner, s.Label.Name)
		default:
			b.stmt(s.Stmt)
		}

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(b.breakTargets, label); t != nil {
				b.jump(t)
			} else {
				b.jump(b.cfg.exit) // malformed input; stay safe
			}
		case token.CONTINUE:
			if t := b.findTarget(b.continueTargets, label); t != nil {
				b.jump(t)
			} else {
				b.jump(b.cfg.exit)
			}
		case token.GOTO:
			b.jump(b.labelBlockFor(label))
			// FALLTHROUGH is handled by buildSwitch, which looks ahead.
		}

	default:
		// Unknown statement kinds (future grammar) are treated as opaque
		// straight-line statements.
		b.add(s)
	}
}

// buildFor lowers a three-clause for statement. The head evaluates the
// condition each iteration; a nil condition makes the head single-successor
// (the loop is unbounded unless broken out of).
func (b *cfgBuilder) buildFor(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	head.pos = s.Pos()
	b.addEdge(b.cur, head)
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	contTarget := head
	var post *cfgBlock
	if s.Post != nil {
		post = b.newBlock("for.post")
		contTarget = post
	}
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
		head.branchCond = s.Cond
		b.addEdge(head, body)
		b.addEdge(head, done)
	} else {
		b.addEdge(head, body)
	}
	b.pushLoop(label, done, contTarget)
	b.cur = body
	b.stmtList(s.Body.List)
	b.addEdge(b.cur, contTarget)
	b.popLoop()
	if post != nil {
		b.cur = post
		b.add(s.Post)
		b.addEdge(post, head)
	}
	b.cur = done
}

// buildRange lowers a range statement: the head is a two-way branch between
// "next element" and "exhausted".
func (b *cfgBuilder) buildRange(s *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	head.pos = s.Pos()
	head.stmts = append(head.stmts, s) // the range stmt itself: key/value binding
	b.addEdge(b.cur, head)
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.addEdge(head, body)
	b.addEdge(head, done)
	b.pushLoop(label, done, head)
	b.cur = body
	b.stmtList(s.Body.List)
	b.addEdge(b.cur, head)
	b.popLoop()
	b.cur = done
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *cfgBlock) {
	b.breakTargets = append(b.breakTargets, branchTarget{"", brk})
	b.continueTargets = append(b.continueTargets, branchTarget{"", cont})
	if label != "" {
		b.breakTargets = append(b.breakTargets, branchTarget{label, brk})
		b.continueTargets = append(b.continueTargets, branchTarget{label, cont})
	}
}

func (b *cfgBuilder) popLoop() {
	n := len(b.breakTargets) - 1
	if n >= 0 && b.breakTargets[n].label != "" {
		b.breakTargets = b.breakTargets[:n]
		b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
		n--
	}
	b.breakTargets = b.breakTargets[:n]
	b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
}

func (b *cfgBuilder) pushBreak(label string, brk *cfgBlock) int {
	n := 1
	b.breakTargets = append(b.breakTargets, branchTarget{"", brk})
	if label != "" {
		b.breakTargets = append(b.breakTargets, branchTarget{label, brk})
		n = 2
	}
	return n
}

func (b *cfgBuilder) popBreak(n int) {
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-n]
}

// buildSwitch lowers switch statements. A tagless switch becomes a cascade
// of conditional blocks (each case expression is a branch condition, so edge
// refinement sees `case err != nil:` exactly like `if err != nil`); a tagged
// switch becomes a multi-way branch from the head.
func (b *cfgBuilder) buildSwitch(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	done := b.newBlock("switch.done")
	n := b.pushBreak(label, done)
	defer b.popBreak(n)

	clauses := make([]*ast.CaseClause, 0, len(s.Body.List))
	for _, c := range s.Body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	// Create the body block for every clause up front so fallthrough can
	// target the next one.
	bodies := make([]*cfgBlock, len(clauses))
	var defaultIdx = -1
	for i, c := range clauses {
		bodies[i] = b.newBlock("case.body")
		bodies[i].pos = c.Pos()
		if c.List == nil {
			defaultIdx = i
		}
	}

	if s.Tag == nil && allSingleExpr(clauses) {
		// Tagless cascade: cond1 ? body1 : (cond2 ? body2 : ... default/done)
		for i, c := range clauses {
			if i == defaultIdx {
				continue
			}
			b.add(c.List[0])
			b.cur.branchCond = c.List[0]
			b.addEdge(b.cur, bodies[i])
			next := b.newBlock("case.next")
			b.addEdge(b.cur, next)
			b.cur = next
		}
		if defaultIdx >= 0 {
			b.addEdge(b.cur, bodies[defaultIdx])
		} else {
			b.addEdge(b.cur, done)
		}
	} else {
		// Tagged (or multi-expression tagless) switch: multi-way branch.
		if s.Tag != nil {
			b.add(s.Tag)
		}
		head := b.cur
		for i := range clauses {
			b.addEdge(head, bodies[i])
		}
		if defaultIdx < 0 {
			b.addEdge(head, done)
		}
	}

	for i, c := range clauses {
		b.cur = bodies[i]
		b.buildClauseBody(c.Body, i, bodies, done)
	}
	b.cur = done
}

// buildClauseBody builds one case body, honoring a trailing fallthrough.
func (b *cfgBuilder) buildClauseBody(body []ast.Stmt, idx int, bodies []*cfgBlock, done *cfgBlock) {
	ft := false
	if n := len(body); n > 0 {
		if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
			body = body[:n-1]
			ft = true
		}
	}
	b.stmtList(body)
	if ft && idx+1 < len(bodies) {
		b.addEdge(b.cur, bodies[idx+1])
		b.cur = b.newBlock("unreachable")
	} else {
		b.addEdge(b.cur, done)
	}
}

func allSingleExpr(clauses []*ast.CaseClause) bool {
	for _, c := range clauses {
		if c.List != nil && len(c.List) != 1 {
			return false
		}
	}
	return true
}

// buildTypeSwitch lowers a type switch as a multi-way branch.
func (b *cfgBuilder) buildTypeSwitch(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	head := b.cur
	done := b.newBlock("typeswitch.done")
	n := b.pushBreak(label, done)
	defer b.popBreak(n)
	hasDefault := false
	for _, raw := range s.Body.List {
		c := raw.(*ast.CaseClause)
		if c.List == nil {
			hasDefault = true
		}
		body := b.newBlock("case.body")
		body.pos = c.Pos()
		b.addEdge(head, body)
		b.cur = body
		b.stmtList(c.Body)
		b.addEdge(b.cur, done)
	}
	if !hasDefault {
		b.addEdge(head, done)
	}
	b.cur = done
}

// buildSelect lowers a select as a multi-way branch; each comm statement
// starts its clause body. A select with no default blocks until a case is
// ready, so there is no head→done edge without one.
func (b *cfgBuilder) buildSelect(s *ast.SelectStmt, label string) {
	head := b.cur
	done := b.newBlock("select.done")
	n := b.pushBreak(label, done)
	defer b.popBreak(n)
	for _, raw := range s.Body.List {
		c := raw.(*ast.CommClause)
		body := b.newBlock("select.body")
		body.pos = c.Pos()
		b.addEdge(head, body)
		b.cur = body
		if c.Comm != nil {
			b.stmt(c.Comm)
		}
		b.stmtList(c.Body)
		b.addEdge(b.cur, done)
	}
	if len(s.Body.List) == 0 {
		b.addEdge(head, done)
	}
	b.cur = done
}

// reachable returns the set of blocks reachable from entry, in index order.
func (c *funcCFG) reachable() []*cfgBlock {
	seen := make([]bool, len(c.blocks))
	var stack []*cfgBlock
	stack = append(stack, c.entry)
	seen[c.entry.index] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.succs {
			if !seen[s.index] {
				seen[s.index] = true
				stack = append(stack, s)
			}
		}
	}
	var out []*cfgBlock
	for _, blk := range c.blocks {
		if seen[blk.index] {
			out = append(out, blk)
		}
	}
	return out
}

// dump renders the reachable graph in a stable text form for golden tests:
// one line per block, "index kind [stmtCount] -> succIndices", with
// unreachable scaffolding blocks elided and indices renumbered densely.
func (c *funcCFG) dump() string {
	blocks := c.reachable()
	renum := make(map[int]int, len(blocks))
	for i, blk := range blocks {
		renum[blk.index] = i
	}
	var sb strings.Builder
	for i, blk := range blocks {
		succs := make([]int, 0, len(blk.succs))
		for _, s := range blk.succs {
			if n, ok := renum[s.index]; ok {
				succs = append(succs, n)
			}
		}
		// Multi-way successor order is construction order (deterministic);
		// only sort duplicates out.
		succs = dedupInts(succs)
		fmt.Fprintf(&sb, "%d %s [%d] ->", i, blk.kind, len(blk.stmts))
		for _, s := range succs {
			fmt.Fprintf(&sb, " %d", s)
		}
		if i < len(blocks)-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func dedupInts(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	seen := make(map[int]bool, len(xs))
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
