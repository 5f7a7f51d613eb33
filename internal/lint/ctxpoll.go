package lint

// CtxPoll guards request-path responsiveness in internal/server: an
// unbounded loop in a handler that never consults its context keeps a
// worker slot pinned past the client's deadline, defeating admission
// control and drain. Inside internal/server, any function that takes a
// context.Context (or a FuncLit nested in one) must, in each potentially
// unbounded loop — `for { ... }` with no condition, or `for range ch` over
// a channel — reference ctx.Done() or ctx.Err() somewhere in the loop body.
//
// Loops over slices, maps, strings, or integers are bounded by their
// operand and are not flagged; neither are loops in functions that have no
// context to poll (those are background machinery with their own shutdown
// protocol, e.g. viewSet.publish).

import (
	"go/ast"
	"go/types"
	"strings"
)

var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "flag unbounded loops in internal/server request paths that never check ctx.Done()",
	Run:  runCtxPoll,
}

// serverPackages are the import-path segments under the request-path
// responsiveness contract.
var serverPackages = []string{"internal/server"}

// matchPkgSegment matches pkgPath against seg on path-segment boundaries
// (same convention as isDeterministicPkg, shared so fixture trees like
// "ctxpoll/internal/server" match).
func matchPkgSegment(pkgPath, seg string) bool {
	return pkgPath == seg ||
		strings.HasSuffix(pkgPath, "/"+seg) ||
		strings.Contains(pkgPath, "/"+seg+"/") ||
		strings.HasPrefix(pkgPath, seg+"/")
}

func isServerPkg(pkgPath string) bool {
	for _, seg := range serverPackages {
		if matchPkgSegment(pkgPath, seg) {
			return true
		}
	}
	return false
}

func runCtxPoll(pass *Pass) error {
	if !isServerPkg(pass.PkgPath) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLoops(pass, fd.Body, contextParam(pass, fd.Type))
		}
	}
	return nil
}

// contextParam returns the object of ft's context.Context parameter, or nil.
func contextParam(pass *Pass, ft *ast.FuncType) types.Object {
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				return obj
			}
		}
	}
	return nil
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkLoops walks body flagging unbounded loops when a context is in
// scope. Function literals inherit the enclosing context (they close over
// it) unless they declare their own.
func checkLoops(pass *Pass, body *ast.BlockStmt, ctxObj types.Object) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := contextParam(pass, n.Type)
			if inner == nil {
				inner = ctxObj
			}
			checkLoops(pass, n.Body, inner)
			return false
		case *ast.ForStmt:
			if ctxObj != nil && n.Cond == nil && !bodyPollsContext(pass, n.Body, ctxObj) {
				pass.Report(n.Pos(), "unbounded for-loop in request path never checks %s.Done(): poll the context so admission deadlines and drain hold", ctxObj.Name())
			}
		case *ast.RangeStmt:
			if ctxObj != nil && isChannelRange(pass, n) && !bodyPollsContext(pass, n.Body, ctxObj) {
				pass.Report(n.Pos(), "range over channel in request path never checks %s.Done(): select on the context so admission deadlines and drain hold", ctxObj.Name())
			}
		}
		return true
	})
}

// isChannelRange reports whether rs ranges over a channel — the only range
// form whose iteration count is unbounded.
func isChannelRange(pass *Pass, rs *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// bodyPollsContext reports whether the loop body references ctx.Done() or
// ctx.Err() (directly or in a select case).
func bodyPollsContext(pass *Pass, body *ast.BlockStmt, ctxObj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Done" && sel.Sel.Name != "Err" {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if ok && pass.TypesInfo.Uses[id] == ctxObj {
			found = true
			return false
		}
		return true
	})
	return found
}
