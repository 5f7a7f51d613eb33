package lint

// PairDiscipline is the control-flow-aware acquire/release analyzer
// (DESIGN.md §12): every resource named in the declarative pair table must
// be released on every path from its acquisition to the function's return
// — not merely somewhere in the same function, which is all a syntactic
// same-function heuristic can check. It runs the generic must-pair
// dataflow (dataflow.go) over the function's CFG (cfg.go) and reports the
// concrete leaking path.
//
// The pair table covers the repository's resource disciplines:
//
//	sync Lock/Unlock, RLock/RUnlock   locks, keyed by receiver expression
//	viewSet.pin / unpin               MVCC epoch-view pins (server)
//	Server.acquireRead / release      read contexts (server)
//	admission.acquire / call          worker-slot release closures (server)
//	Trace.Start, Span.Child,
//	runObs.phase / End, finish        obs spans (core, obs)
//	Graph.acquireScratch / release    BFS scratch buffers (graph)
//	sync.Pool Get / Put               pooled scratch generally
//
// Results that are handed off — returned, stored in a struct, captured by a
// closure, passed to another function — leave the function's responsibility
// and stop being tracked; a release method referenced as a method value
// (release: s.mu.RUnlock) likewise counts as a handoff. Error-conditioned
// acquires (release, err := acquire(...)) are understood: on the branch
// where err != nil (or errors.Is(err, ...)) holds, the resource is dead and
// needs no release.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var PairDiscipline = &Analyzer{
	Name: "pairdiscipline",
	Doc:  "flag acquire calls (locks, pins, spans, scratch, slots) not released on every path",
	Run:  runPairDiscipline,
}

type pairMode int

const (
	pairRecv   pairMode = iota // release is a method on the same receiver expression
	pairResult                 // the resource is a result of the acquire call
)

// pairSpec is one row of the declarative pair table.
type pairSpec struct {
	id   string   // short label for messages
	mode pairMode // receiver-keyed or result-keyed

	acquirePkg   string // required defining package path ("" = any)
	acquireRecv  string // required receiver type name ("" = any, incl. plain funcs)
	acquireNames map[string]bool

	releaseNames  map[string]bool // method/field names that release the resource
	releaseByCall bool            // calling the resource value itself releases it

	resultIdx int // index of the resource among the acquire's results
	errIdx    int // index of an error co-result (-1 = none)

	hint string // remediation phrasing
}

var pairTable = []*pairSpec{
	{
		id: "Lock/Unlock", mode: pairRecv,
		acquirePkg: "sync", acquireNames: names("Lock"),
		releaseNames: names("Unlock"),
		hint:         "release on every path (prefer defer)",
	},
	{
		id: "RLock/RUnlock", mode: pairRecv,
		acquirePkg: "sync", acquireNames: names("RLock"),
		releaseNames: names("RUnlock"),
		hint:         "release on every path (prefer defer)",
	},
	{
		id: "pin/unpin", mode: pairResult,
		acquireRecv: "viewSet", acquireNames: names("pin"),
		releaseNames: names("unpin"), resultIdx: 0, errIdx: -1,
		hint: "unpin the view on every path",
	},
	{
		id: "acquireRead/release", mode: pairResult,
		acquireNames: names("acquireRead"),
		releaseNames: names("release"), resultIdx: 0, errIdx: -1,
		hint: "call the read context's release on every path (prefer defer)",
	},
	{
		id: "admission acquire/release", mode: pairResult,
		acquireRecv: "admission", acquireNames: names("acquire"),
		releaseByCall: true, resultIdx: 0, errIdx: 1,
		hint: "call the returned release func on every path (prefer defer)",
	},
	{
		id: "span Start/End", mode: pairResult,
		acquireRecv: "Trace", acquireNames: names("Start"),
		releaseNames: names("End"), resultIdx: 0, errIdx: -1,
		hint: "End the span on every path",
	},
	{
		id: "reqspan Start/End", mode: pairResult,
		acquireRecv: "ReqTrace", acquireNames: names("Start"),
		releaseNames: names("End"), resultIdx: 0, errIdx: -1,
		hint: "End the request stage span on every path",
	},
	{
		id: "span Child/End", mode: pairResult,
		acquireRecv: "Span", acquireNames: names("Child"),
		releaseNames: names("End"), resultIdx: 0, errIdx: -1,
		hint: "End the span on every path",
	},
	{
		id: "phase span/End", mode: pairResult,
		acquireRecv: "runObs", acquireNames: names("phase"),
		releaseNames: names("End"), resultIdx: 0, errIdx: -1,
		hint: "End the phase span on every path",
	},
	{
		id: "startRun/finish", mode: pairResult,
		acquireNames: names("startRun"),
		releaseNames: names("finish", "abort"), resultIdx: 0, errIdx: -1,
		hint: "finish (or abort) the run on every path so the root span closes",
	},
	{
		id: "acquireScratch/releaseScratch", mode: pairResult,
		acquireRecv: "Graph", acquireNames: names("acquireScratch"),
		releaseNames: names("releaseScratch"), resultIdx: 0, errIdx: -1,
		hint: "return the scratch to the pool on every path (prefer defer)",
	},
	{
		id: "Pool Get/Put", mode: pairResult,
		acquirePkg: "sync", acquireRecv: "Pool", acquireNames: names("Get"),
		releaseNames: names("Put"), resultIdx: 0, errIdx: -1,
		hint: "Put the pooled value back on every path",
	},
	{
		id: "store Open/Close", mode: pairResult,
		acquirePkg: "github.com/cwru-db/fgs/internal/store", acquireNames: names("Open"),
		releaseNames: names("Close"), resultIdx: 0, errIdx: 2,
		hint: "Close the store on every path (prefer defer) so the WAL seals with a final sync",
	},
	{
		id: "snapshot BeginSnapshot/Commit|Abort", mode: pairResult,
		acquireRecv: "Store", acquireNames: names("BeginSnapshot"),
		releaseNames: names("Commit", "Abort"), resultIdx: 0, errIdx: 1,
		hint: "finish the snapshot with exactly one of Commit or Abort on every path",
	},
}

func names(ns ...string) map[string]bool {
	m := make(map[string]bool, len(ns))
	for _, n := range ns {
		m[n] = true
	}
	return m
}

// pairResource is one tracked acquisition site.
type pairResource struct {
	id   int
	spec *pairSpec
	pos  token.Pos
	call *ast.CallExpr

	// recv mode: the receiver expression, textually.
	key string
	// result mode: the variable bound to the result, and the error co-result.
	bindObj types.Object
	errObj  types.Object

	// display strings for messages
	acquireText string // e.g. "c.mu.Lock" or "run.phase"
}

func runPairDiscipline(pass *Pass) error {
	for _, file := range pass.Files {
		// Top-level function bodies.
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				analyzeFuncPair(pass, fd.Body)
			}
		}
		// Every function literal is its own analysis scope: a resource
		// acquired in a closure must be released in that closure (or hand
		// off), regardless of where the closure runs.
		ast.Inspect(file, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				analyzeFuncPair(pass, fl.Body)
			}
			return true
		})
	}
	return nil
}

// --- matching helpers ----------------------------------------------------

// calleeFunc resolves a call's callee to a *types.Func when it is a named
// function or method (through method-set selection).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// recvTypeName returns the name of fn's receiver's named type ("" for plain
// functions or unnamed receivers).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// matchAcquire reports the pair spec an acquire call matches, if any.
func matchAcquire(pass *Pass, call *ast.CallExpr) *pairSpec {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return nil
	}
	for _, spec := range pairTable {
		if !spec.acquireNames[fn.Name()] {
			continue
		}
		if spec.acquirePkg != "" && (fn.Pkg() == nil || fn.Pkg().Path() != spec.acquirePkg) {
			continue
		}
		if spec.acquireRecv != "" && recvTypeName(fn) != spec.acquireRecv {
			continue
		}
		if spec.mode == pairRecv {
			if _, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); !ok {
				continue
			}
		}
		return spec
	}
	return nil
}

// exprObj resolves an identifier expression to its object.
func exprObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}

// --- per-function analysis -----------------------------------------------

// parentedVisit walks root keeping the parent chain. funcLitDepth counts
// enclosing function literals that are NOT immediately-deferred closures
// (a `defer func() { ... }()` body runs at this function's exits, so it is
// treated as part of this function for release purposes).
type parentedVisit func(n ast.Node, parents []ast.Node, funcLitDepth int)

func walkParents(root ast.Node, visit parentedVisit) {
	var parents []ast.Node
	var walk func(n ast.Node, funcLitDepth int)
	walk = func(n ast.Node, funcLitDepth int) {
		if n == nil {
			return
		}
		visit(n, parents, funcLitDepth)
		parents = append(parents, n)
		depth := funcLitDepth
		if fl, ok := n.(*ast.FuncLit); ok && !isDeferredClosure(fl, parents) {
			depth++
		}
		for _, child := range childNodes(n) {
			walk(child, depth)
		}
		parents = parents[:len(parents)-1]
	}
	walk(root, 0)
}

// isDeferredClosure reports whether fl is the callee of a call that is the
// immediate argument of a defer statement: defer func(){...}().
func isDeferredClosure(fl *ast.FuncLit, parents []ast.Node) bool {
	n := len(parents)
	if n < 2 {
		return false
	}
	call, ok := parents[n-1].(*ast.CallExpr)
	if !ok || ast.Unparen(call.Fun) != ast.Node(fl) {
		return false
	}
	_, ok = parents[n-2].(*ast.DeferStmt)
	return ok
}

// childNodes enumerates n's direct children via ast.Inspect's first level.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

func analyzeFuncPair(pass *Pass, body *ast.BlockStmt) {
	resources := collectResources(pass, body)
	if len(resources) == 0 {
		return
	}

	cfg := buildCFG(body, func(call *ast.CallExpr) bool { return isTerminalCall(pass, call) })

	events := make(map[ast.Node][]pairEvent)
	eventsFor := func(n ast.Node) []pairEvent {
		if ev, ok := events[n]; ok {
			return ev
		}
		ev := stmtPairEvents(pass, n, resources)
		events[n] = ev
		return ev
	}

	problem := &flowProblem{
		numFacts: len(resources),
		transferStmt: func(n ast.Node, state factSet) {
			for _, ev := range eventsFor(n) {
				if ev.gen {
					state.add(ev.resource)
				} else {
					state.del(ev.resource)
				}
			}
		},
		refineEdge: func(from *cfgBlock, succIdx int, state factSet) {
			if from.branchCond == nil {
				return
			}
			refinePairEdge(pass, from.branchCond, succIdx == 0, resources, state)
		},
	}
	res := solveForward(cfg, problem)

	for _, id := range res.leaksAtExit() {
		r := resources[id]
		genBlock := blockContaining(cfg, eventsFor, id)
		if genBlock == nil {
			continue
		}
		lines, exitPos, ok := res.witnessPath(pass.Fset, id, genBlock)
		path := formatPath(lines)
		exit := "the end of the function"
		if ok && exitPos != token.NoPos {
			exit = fmt.Sprintf("the return at line %d", pass.Fset.Position(exitPos).Line)
		}
		switch r.spec.mode {
		case pairRecv:
			rel := releaseNameFor(r.spec, r.acquireText)
			pass.Report(r.pos, "%s() without a matching %s() on the path to %s%s: %s",
				r.acquireText, rel, exit, path, r.spec.hint)
		default:
			pass.Report(r.pos, "%s(): %s acquired here is not released on the path to %s%s: %s",
				r.acquireText, r.spec.id, exit, path, r.spec.hint)
		}
	}
}

// releaseNameFor renders the expected release spelling for a recv-mode
// finding: "c.mu.Lock" -> "c.mu.Unlock".
func releaseNameFor(spec *pairSpec, acquireText string) string {
	recv := acquireText
	if i := strings.LastIndex(acquireText, "."); i >= 0 {
		recv = acquireText[:i]
	}
	for rel := range spec.releaseNames {
		return recv + "." + rel
	}
	return recv
}

func formatPath(lines []int) string {
	if len(lines) <= 1 {
		return ""
	}
	const maxShown = 6
	parts := make([]string, 0, maxShown)
	for i, l := range lines {
		if i == maxShown {
			parts = append(parts, "…")
			break
		}
		parts = append(parts, fmt.Sprint(l))
	}
	return " (path: line " + strings.Join(parts, " → ") + ")"
}

// blockContaining finds the block whose events generate resource id.
func blockContaining(cfg *funcCFG, eventsFor func(ast.Node) []pairEvent, id int) *cfgBlock {
	for _, blk := range cfg.blocks {
		for _, n := range blk.stmts {
			for _, ev := range eventsFor(n) {
				if ev.gen && ev.resource == id {
					return blk
				}
			}
		}
	}
	return nil
}

type pairEvent struct {
	gen      bool // true = acquire, false = release/escape/handoff
	resource int
}

// collectResources finds every tracked acquisition in the function's own
// statements (excluding nested function literals, which analyze
// separately). Acquire results that are immediately discarded are reported
// right away; results that escape at the binding site are skipped.
func collectResources(pass *Pass, body *ast.BlockStmt) []*pairResource {
	var resources []*pairResource
	walkParents(body, func(n ast.Node, parents []ast.Node, funcLitDepth int) {
		if funcLitDepth > 0 {
			return
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		// Acquires inside any function literal — deferred or not — belong to
		// that literal's own analysis scope.
		for _, p := range parents {
			if _, ok := p.(*ast.FuncLit); ok {
				return
			}
		}
		spec := matchAcquire(pass, call)
		if spec == nil {
			return
		}
		r := &pairResource{spec: spec, pos: call.Pos(), call: call}
		sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if sel != nil {
			r.acquireText = types.ExprString(sel.X) + "." + sel.Sel.Name
		} else {
			r.acquireText = types.ExprString(call.Fun)
		}

		if spec.mode == pairRecv {
			r.key = types.ExprString(sel.X)
			r.id = len(resources)
			resources = append(resources, r)
			return
		}

		// Result mode: classify the binding from the call's context.
		bind, errBind, status := classifyBinding(pass, call, spec, parents)
		switch status {
		case bindDiscarded:
			pass.Report(call.Pos(), "%s(): result of %s is discarded, so it can never be released: bind it and %s",
				r.acquireText, spec.id, spec.hint)
			return
		case bindEscaped, bindPaired:
			return
		}
		r.bindObj = bind
		r.errObj = errBind
		r.id = len(resources)
		resources = append(resources, r)
	})
	return resources
}

type bindStatus int

const (
	bindTracked bindStatus = iota
	bindDiscarded
	bindEscaped
	bindPaired
)

// classifyBinding determines what happens to a result-mode acquire's
// resource at the acquisition site.
func classifyBinding(pass *Pass, call *ast.CallExpr, spec *pairSpec, parents []ast.Node) (bind, errBind types.Object, status bindStatus) {
	// Walk outward through parens and type assertions.
	child := ast.Node(call)
	i := len(parents) - 1
	for i >= 0 {
		if p, ok := parents[i].(*ast.ParenExpr); ok && ast.Node(p) != nil {
			child = parents[i]
			i--
			continue
		}
		if ta, ok := parents[i].(*ast.TypeAssertExpr); ok && ast.Unparen(ta.X) == exprOf(child) {
			child = parents[i]
			i--
			continue
		}
		break
	}
	if i < 0 {
		return nil, nil, bindEscaped
	}
	switch p := parents[i].(type) {
	case *ast.AssignStmt:
		return classifyAssign(pass, p, exprOf(child), spec)
	case *ast.ValueSpec:
		for vi, v := range p.Values {
			if ast.Unparen(v) == exprOf(child) && len(p.Names) == len(p.Values) {
				return identObj(pass, p.Names[vi]), nil, bindTracked
			}
		}
		// var a, b = f() multi-result form
		if len(p.Values) == 1 && len(p.Names) > spec.resultIdx {
			var errObj types.Object
			if spec.errIdx >= 0 && spec.errIdx < len(p.Names) {
				errObj = identObj(pass, p.Names[spec.errIdx])
			}
			return identObj(pass, p.Names[spec.resultIdx]), errObj, bindTracked
		}
		return nil, nil, bindEscaped
	case *ast.ExprStmt, *ast.GoStmt, *ast.DeferStmt:
		return nil, nil, bindDiscarded
	case *ast.SelectorExpr:
		// Chained release: tr.Start("x").End() — acquired and released in
		// one expression.
		if p.X == exprOf(child) && spec.releaseNames[p.Sel.Name] {
			if i-1 >= 0 {
				if pc, ok := parents[i-1].(*ast.CallExpr); ok && ast.Unparen(pc.Fun) == ast.Node(p) {
					return nil, nil, bindPaired
				}
			}
		}
		return nil, nil, bindEscaped
	default:
		// Return value, call argument, composite literal, channel send, ...:
		// the resource is handed off at birth.
		return nil, nil, bindEscaped
	}
}

func exprOf(n ast.Node) ast.Expr {
	e, _ := n.(ast.Expr)
	return e
}

func classifyAssign(pass *Pass, as *ast.AssignStmt, rhs ast.Expr, spec *pairSpec) (bind, errBind types.Object, status bindStatus) {
	// Find which RHS slot holds the acquire.
	slot := -1
	for i, r := range as.Rhs {
		if ast.Unparen(r) == rhs || containsAssertOf(r, rhs) {
			slot = i
			break
		}
	}
	if slot < 0 {
		return nil, nil, bindEscaped
	}
	var bindExpr ast.Expr
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// release, err := acquire(ctx)  /  s, ok := pool.Get().(*T)
		idx := spec.resultIdx
		if idx >= len(as.Lhs) {
			idx = 0
		}
		bindExpr = as.Lhs[idx]
		if spec.errIdx >= 0 && spec.errIdx < len(as.Lhs) {
			errBind = identObj(pass, identOf(as.Lhs[spec.errIdx]))
		}
	} else if slot < len(as.Lhs) {
		bindExpr = as.Lhs[slot]
	} else {
		return nil, nil, bindEscaped
	}
	id := identOf(bindExpr)
	if id == nil {
		return nil, nil, bindEscaped // stored into a field/index: handed off
	}
	if id.Name == "_" {
		return nil, nil, bindDiscarded
	}
	obj := identObj(pass, id)
	if obj == nil {
		return nil, nil, bindEscaped
	}
	return obj, errBind, bindTracked
}

// containsAssertOf reports whether e is a type assertion (possibly
// parenthesized) over rhs.
func containsAssertOf(e, rhs ast.Expr) bool {
	if ta, ok := ast.Unparen(e).(*ast.TypeAssertExpr); ok {
		return ast.Unparen(ta.X) == rhs
	}
	return false
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

func identObj(pass *Pass, id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// stmtPairEvents computes the gen/kill events one CFG statement produces,
// kills ordered before gens (a reassignment releases the old binding before
// acquiring the new one).
func stmtPairEvents(pass *Pass, stmt ast.Node, resources []*pairResource) []pairEvent {
	var gens, kills []pairEvent
	seenKill := make(map[int]bool)
	kill := func(id int) {
		if !seenKill[id] {
			seenKill[id] = true
			kills = append(kills, pairEvent{gen: false, resource: id})
		}
	}

	// A range head block carries the whole RangeStmt as its statement; only
	// the header expressions execute there — the body has its own blocks.
	roots := []ast.Node{stmt}
	if rs, ok := stmt.(*ast.RangeStmt); ok {
		roots = roots[:0]
		for _, e := range []ast.Expr{rs.Key, rs.Value, rs.X} {
			if e != nil {
				roots = append(roots, e)
			}
		}
	}

	visit := func(n ast.Node, parents []ast.Node, funcLitDepth int) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if funcLitDepth == 0 {
				for _, r := range resources {
					if r.call == n {
						gens = append(gens, pairEvent{gen: true, resource: r.id})
					} else if releasesResource(pass, n, r) {
						kill(r.id)
					}
				}
			}
		case *ast.SelectorExpr:
			// Method-value handoff: taking s.mu.RUnlock (or rc.release) as a
			// value transfers release responsibility.
			if isMethodValue(n, parents) {
				for _, r := range resources {
					if selectsRelease(pass, n, r) {
						kill(r.id)
					}
				}
			}
		case *ast.Ident:
			for _, r := range resources {
				if r.bindObj == nil || identObj(pass, n) != r.bindObj {
					continue
				}
				if escapingUse(pass, n, parents, r, funcLitDepth) {
					kill(r.id)
				}
			}
		}
	}
	for _, root := range roots {
		walkParents(root, visit)
	}
	return append(kills, gens...)
}

// releasesResource reports whether call releases r: for recv mode a release
// method on the textually same receiver; for result mode a release call
// that references the bound variable as receiver, callee, or first argument.
func releasesResource(pass *Pass, call *ast.CallExpr, r *pairResource) bool {
	fun := ast.Unparen(call.Fun)
	switch r.spec.mode {
	case pairRecv:
		sel, ok := fun.(*ast.SelectorExpr)
		if !ok || !r.spec.releaseNames[sel.Sel.Name] {
			return false
		}
		return types.ExprString(sel.X) == r.key
	default:
		// release()
		if id, ok := fun.(*ast.Ident); ok {
			return identObj(pass, id) == r.bindObj
		}
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			// rc.release() / sp.End()
			if r.spec.releaseNames[sel.Sel.Name] && exprObj(pass, sel.X) == r.bindObj {
				return true
			}
			// vs.unpin(v) / g.releaseScratch(s) / pool.Put(s)
			if r.spec.releaseNames[sel.Sel.Name] && len(call.Args) > 0 && exprObj(pass, call.Args[0]) == r.bindObj {
				return true
			}
		}
		return false
	}
}

// selectsRelease reports whether sel is a reference to r's release member
// (method value / func field) — a handoff.
func selectsRelease(pass *Pass, sel *ast.SelectorExpr, r *pairResource) bool {
	if !r.spec.releaseNames[sel.Sel.Name] {
		return false
	}
	switch r.spec.mode {
	case pairRecv:
		return types.ExprString(sel.X) == r.key
	default:
		return exprObj(pass, sel.X) == r.bindObj
	}
}

// isMethodValue reports whether sel appears as a value, not as a call's
// callee.
func isMethodValue(sel *ast.SelectorExpr, parents []ast.Node) bool {
	for i := len(parents) - 1; i >= 0; i-- {
		switch p := parents[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.CallExpr:
			return ast.Unparen(p.Fun) != ast.Expr(sel)
		default:
			return true
		}
	}
	return true
}

// escapingUse classifies a use of the resource's bound variable. Reads
// through a selector (rc.g, sp.SetArg(...)) and release calls are fine;
// anything that lets the value outlive or leave the function — return,
// call argument, composite literal, store into a field/slice/map/channel,
// address-of, capture by a non-deferred closure, reassignment — kills
// tracking (handed off) or, for reassignment, releases the old binding.
func escapingUse(pass *Pass, id *ast.Ident, parents []ast.Node, r *pairResource, funcLitDepth int) bool {
	if funcLitDepth > 0 {
		return true // captured by a closure that may run anywhere
	}
	if len(parents) == 0 {
		return false
	}
	p := parents[len(parents)-1]
	switch p := p.(type) {
	case *ast.SelectorExpr:
		// Reading a field or calling a method: not an escape (release and
		// handoff selectors are recognized separately).
		return false
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == ast.Expr(id) {
			// Calling the value: the admission-style release, or at worst a
			// use that consumes it.
			return !r.spec.releaseByCall
		}
		// Argument position: release forms (vs.unpin(v)) are recognized by
		// releasesResource; anything else hands the value off.
		return !releasesResource(pass, p, r)
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if ast.Unparen(l) == ast.Expr(id) {
				return true // reassignment: old binding is gone
			}
		}
		return true // RHS of an assignment: aliased/stored
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.UnaryExpr,
		*ast.SendStmt, *ast.IndexExpr, *ast.RangeStmt, *ast.GoStmt:
		return true
	case *ast.ParenExpr:
		return false // the paren's own parent will be visited for the paren
	default:
		return false
	}
}

// refinePairEdge kills resources proven dead by a branch condition:
// err != nil (acquire failed) or resource == nil.
func refinePairEdge(pass *Pass, cond ast.Expr, trueEdge bool, resources []*pairResource, state factSet) {
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.BinaryExpr:
		var obj types.Object
		var isNilCmp, eq bool
		if isNilIdent(pass, c.Y) {
			obj, isNilCmp = exprObj(pass, c.X), true
		} else if isNilIdent(pass, c.X) {
			obj, isNilCmp = exprObj(pass, c.Y), true
		}
		if !isNilCmp || obj == nil {
			return
		}
		eq = c.Op == token.EQL
		for _, r := range resources {
			if r.bindObj == nil {
				continue
			}
			dead := false
			if obj == r.errObj {
				// err != nil true ⇒ acquire failed; err == nil false ⇒ same.
				dead = (trueEdge && !eq) || (!trueEdge && eq)
			} else if obj == r.bindObj {
				// res == nil true ⇒ nothing to release.
				dead = (trueEdge && eq) || (!trueEdge && !eq)
			}
			if dead {
				state.del(r.id)
			}
		}
	case *ast.CallExpr:
		// errors.Is(err, target) on the true edge ⇒ err non-nil ⇒ failed.
		if !trueEdge {
			return
		}
		sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Is" || len(c.Args) < 1 {
			return
		}
		if pkg, ok := pass.TypesInfo.Uses[identOf(sel.X)].(*types.PkgName); !ok || pkg.Imported().Path() != "errors" {
			return
		}
		obj := exprObj(pass, c.Args[0])
		if obj == nil {
			return
		}
		for _, r := range resources {
			if r.errObj != nil && r.errObj == obj {
				state.del(r.id)
			}
		}
	}
}

func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name != "nil" {
		return false
	}
	_, isNil := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNil
}

// isTerminalCall reports whether a call never returns: builtin panic,
// os.Exit, runtime.Goexit, or log.Fatal*/log.Panic*.
func isTerminalCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			_, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin)
			return isBuiltin
		}
	case *ast.SelectorExpr:
		pkgID, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		pkgName, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
		if !ok {
			return false
		}
		name := fun.Sel.Name
		switch pkgName.Imported().Path() {
		case "os":
			return name == "Exit"
		case "runtime":
			return name == "Goexit"
		case "log":
			return strings.HasPrefix(name, "Fatal") || strings.HasPrefix(name, "Panic")
		}
	}
	return false
}
