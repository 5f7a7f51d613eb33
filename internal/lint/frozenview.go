package lint

// FrozenView enforces the MVCC immutability contract (DESIGN.md §12): a
// graph obtained through a read path — `acquireRead`, an `epochView`, or a
// `viewSet.pin` — is a published, shared structure
// that concurrent readers are traversing. Calling any mutating method on
// it (the curated mutator set: AddNode/AddEdge/RemoveEdge on Graph, Intern
// on Interner) corrupts readers at other epochs and breaks the
// byte-identical-summary determinism claim.
//
// Detection is the taint helper (taint.go) per function: frozen sources
// seed the set, assignments propagate it, and a mutator call whose
// receiver is frozen is reported. `Clone()` (and any other non-source
// call) is a barrier — a deep copy of a frozen graph is the writer's own.
//
// The writer's delta replay is the one sanctioned mutation site: the
// functions in frozenReplayAllowed apply the log to a pinned replica that
// is provably unpublished while they run.

import (
	"go/ast"
	"go/types"
)

var FrozenView = &Analyzer{
	Name: "frozenview",
	Doc:  "flag mutating Graph/Interner methods on values reached from a frozen read view",
	Run:  runFrozenView,
}

// frozenMutators is the curated mutator set: method name → receiver type
// name it mutates.
var frozenMutators = map[string]string{
	"AddNode":    "Graph",
	"AddEdge":    "Graph",
	"RemoveEdge": "Graph",
	"Intern":     "Interner",
}

// frozenSources are the read-path entry points whose results are frozen:
// method name → required receiver type name ("" = any receiver or plain
// function).
var frozenSources = map[string]string{
	"acquireRead": "",
	"pin":         "viewSet",
}

// frozenContainers are named types whose fields are frozen views: reading
// any field off them (rc.g, rep.summary) yields frozen data.
var frozenContainers = map[string]bool{
	"readCtx":   true,
	"epochView": true,
}

// frozenReplayAllowed lists the writer-side replay functions ("Recv.name"
// or "name") where mutating a pinned, unpublished replica is the whole
// point.
var frozenReplayAllowed = map[string]bool{
	"viewSet.catchUp": true,
	"newViewSet":      true,
}

func runFrozenView(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if frozenReplayAllowed[funcKey(fd)] {
				continue
			}
			checkFrozenBody(pass, fd.Body)
		}
	}
	return nil
}

// funcKey renders a FuncDecl as "Recv.name" for methods, "name" otherwise.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func checkFrozenBody(pass *Pass, body *ast.BlockStmt) {
	ts := &taintSet{pass: pass, objs: make(map[types.Object]bool)}
	ts.seedExpr = func(e ast.Expr) bool { return isFrozenSource(pass, ts, e) }
	ts.solve(body)

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		wantRecv, isMutator := frozenMutators[sel.Sel.Name]
		if !isMutator {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || recvTypeName(fn) != wantRecv {
			return true
		}
		if ts.tainted(sel.X) {
			pass.Report(call.Pos(), "%s.%s mutates a frozen read view: published epochs are immutable — mutate only the writer's pinned replica (Clone first, or do it in the replay path)",
				types.ExprString(sel.X), sel.Sel.Name)
		}
		return true
	})
}

// isFrozenSource reports whether e directly denotes frozen data: a call to
// a read-path entry point, or a field read off a frozen container or an
// already-tainted base.
func isFrozenSource(pass *Pass, ts *taintSet, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		fn := calleeFunc(pass, e)
		if fn == nil {
			return false
		}
		wantRecv, isSource := frozenSources[fn.Name()]
		if !isSource {
			return false
		}
		return wantRecv == "" || recvTypeName(fn) == wantRecv
	case *ast.SelectorExpr:
		// A selection is frozen when it reads *data* out of a frozen
		// container — not when it is a method reference (rc.release is a
		// func value, not a view).
		if _, isMethod := pass.TypesInfo.Selections[e]; isMethod {
			if sel := pass.TypesInfo.Selections[e]; sel.Kind() != types.FieldVal {
				return false
			}
		}
		base := ast.Unparen(e.X)
		if frozenContainers[typeNameOf(pass, base)] {
			return true
		}
		return ts.tainted(base)
	}
	return false
}

// typeNameOf returns the named-type name of e's type (through pointers),
// or "".
func typeNameOf(pass *Pass, e ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
