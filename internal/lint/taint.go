package lint

// taint.go is the small reachability helper of the control-flow core
// (DESIGN.md §12): given seed expressions inside one function, it computes
// the set of local variables that may alias a seeded value, by iterating the
// function's assignments to a fixpoint. It is deliberately flow-insensitive
// (an object is tainted for the whole function once any assignment taints
// it) and intraprocedural — both conservative in the safe direction for the
// frozenview analyzer, which wants "could this variable refer to a frozen
// structure at all?".

import (
	"go/ast"
	"go/types"
)

// taintSet tracks tainted local objects within one function.
type taintSet struct {
	pass *Pass
	objs map[types.Object]bool

	// seedExpr reports whether an expression is a taint source by itself
	// (independent of variable propagation).
	seedExpr func(e ast.Expr) bool
}

// solve iterates body's assignments to a fixpoint: every variable assigned
// (directly or transitively) from an expression matching seedExpr is
// tainted. Clients construct the taintSet, install seedExpr (which may
// consult the set itself, e.g. "a selector off a tainted base is
// tainted"), and call solve.
func (ts *taintSet) solve(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						if ts.tainted(n.Rhs[i]) && ts.taintLHS(n.Lhs[i]) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						if ts.tainted(n.Values[i]) && ts.taintIdent(n.Names[i]) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				// Ranging over a tainted collection taints the element.
				if ts.tainted(n.X) {
					if id, ok := n.Value.(*ast.Ident); ok && ts.taintIdent(id) {
						changed = true
					}
				}
			}
			return true
		})
	}
}

func (ts *taintSet) taintLHS(e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return ts.taintIdent(id)
	}
	return false
}

func (ts *taintSet) taintIdent(id *ast.Ident) bool {
	if id.Name == "_" {
		return false
	}
	obj := ts.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = ts.pass.TypesInfo.Uses[id]
	}
	if obj == nil || ts.objs[obj] {
		return false
	}
	ts.objs[obj] = true
	return true
}

// tainted reports whether e may evaluate to a tainted value: a seed
// expression, a tainted identifier, or a parenthesization of either.
func (ts *taintSet) tainted(e ast.Expr) bool {
	e = ast.Unparen(e)
	if ts.seedExpr != nil && ts.seedExpr(e) {
		return true
	}
	if id, ok := e.(*ast.Ident); ok {
		obj := ts.pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = ts.pass.TypesInfo.Defs[id]
		}
		return obj != nil && ts.objs[obj]
	}
	return false
}
