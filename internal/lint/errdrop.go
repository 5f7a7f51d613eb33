package lint

// ErrDrop flags discarded error returns in library packages. The service's
// failure handling depends on errors propagating: a swallowed Close or
// encoder error turns a detectable fault into silent corruption. Two forms
// are flagged:
//
//	f.Close()          // expression statement discarding an error result
//	_ = f.Close()      // explicit blank assignment of an error result
//	_, _ = w.Write(b)  // blank assignment discarding an error among others
//
// Command packages (package main) are exempt — top-level binaries routinely
// best-effort-close on exit paths and are audited by hand — as are writes
// to inherently infallible or error-latching writers (bytes.Buffer,
// strings.Builder, bufio.Writer short of Flush; see errDropExempt).
// Deliberate discards in library code take a justified
// `//lint:allow errdrop <why>` annotation.

import (
	"go/ast"
	"go/types"
)

var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "flag discarded error returns in library packages",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := ast.Unparen(n.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				if errIdx := droppedErrIndex(pass, call); errIdx >= 0 {
					pass.Report(call.Pos(), "result %d (error) of %s is discarded: handle it, return it, or annotate //lint:allow errdrop",
						errIdx, calleeText(call))
				}
			case *ast.AssignStmt:
				if !allBlankLHS(n) || len(n.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				if errIdx := droppedErrIndex(pass, call); errIdx >= 0 {
					pass.Report(n.Pos(), "result %d (error) of %s is assigned to _: handle it, return it, or annotate //lint:allow errdrop",
						errIdx, calleeText(call))
				}
			}
			return true
		})
	}
	return nil
}

// allBlankLHS reports whether every left-hand side of an assignment is the
// blank identifier. A partial assignment (v, _ = f()) keeps some result and
// is a deliberate selection, not a drop.
func allBlankLHS(as *ast.AssignStmt) bool {
	for _, l := range as.Lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// droppedErrIndex returns the index of an error result the call discards,
// or -1 if the call has no error result or is exempt.
func droppedErrIndex(pass *Pass, call *ast.CallExpr) int {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return -1
	}
	if errDropExempt(pass, call) {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return i
			}
		}
	default:
		if tv.Type != nil && isErrorType(tv.Type) {
			return 0
		}
	}
	return -1
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// errDropExempt reports calls whose error results are structurally inert:
//
//   - methods on bytes.Buffer and strings.Builder never fail (their errors
//     exist to satisfy io.Writer and friends);
//   - bufio.Writer latches the first write error and re-reports it from
//     Flush, so intermediate writes are safely droppable as long as the
//     Flush itself is checked — which errdrop still enforces;
//   - fmt.Fprint/Fprintf/Fprintln routed to one of those writers can only
//     fail with the writer's own error, covered by the cases above.
func errDropExempt(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if recv := recvTypeName(fn); recv != "" {
		switch fn.Pkg().Path() {
		case "bytes":
			return recv == "Buffer"
		case "strings":
			return recv == "Builder"
		case "bufio":
			return recv == "Writer" && fn.Name() != "Flush"
		}
		return false
	}
	if fn.Pkg().Path() == "fmt" && len(call.Args) > 0 {
		switch fn.Name() {
		case "Fprint", "Fprintf", "Fprintln":
			return latchingWriter(pass.TypesInfo.Types[call.Args[0]].Type)
		}
	}
	return false
}

// latchingWriter reports whether t is a pointer to a writer whose Write
// either cannot fail or latches its error for a later checked call.
func latchingWriter(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "bytes.Buffer", "strings.Builder", "bufio.Writer":
		return true
	}
	return false
}

// calleeText renders the callee for a diagnostic.
func calleeText(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return types.ExprString(fun)
	case *ast.Ident:
		return fun.Name
	default:
		return "call"
	}
}
