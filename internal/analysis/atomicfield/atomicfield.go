// Package atomicfield flags plain reads and writes of variables that
// are accessed through sync/atomic functions elsewhere in the same
// package.
//
// The PR 5 runtime knob overrides (all since removed) made
// "field written atomically, read from the data path" a standing
// pattern in this codebase. The engines migrated to atomic.Int32
// wrapper types, which make mixed access inexpressible — but
// function-style atomics (atomic.StoreInt32(&s.f, v)) guarantee nothing
// about other sites: one plain `s.f` read compiles fine, races under
// the hood, and only occasionally trips the race detector because the
// window is a single load. This analyzer closes the gap statically: if
// any site in the package takes a field's (or package-level variable's)
// address into a sync/atomic call, every other access to that variable
// must be atomic too.
//
// Mutex-guarded mixed use is a legitimate exception (atomic write,
// read under the lock that all writers hold) — suppress with an inline
// ignore backed by the allowlist.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ldplfs/internal/analysis"
)

// Analyzer is the production instance.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc: "flags plain loads/stores of fields accessed via sync/atomic elsewhere in " +
		"the package (mixed access is a data race the compiler accepts)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Pass 1: collect every variable whose address feeds a sync/atomic
	// call, remembering the enclosing call so those sites aren't
	// re-flagged in pass 2.
	atomicVars := make(map[*types.Var]string) // var -> atomic func name
	atomicArgs := make(map[ast.Expr]bool)     // &x arguments inside atomic calls
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := atomicCallee(pass, call)
			if fn == "" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if v := exprVar(pass, un.X); v != nil {
					if _, seen := atomicVars[v]; !seen {
						atomicVars[v] = fn // first site in source order, for stable messages
					}
					atomicArgs[un.X] = true
				}
			}
			return true
		})
	}
	if len(atomicVars) == 0 {
		return nil
	}
	// Pass 2: every other mention of those variables must be atomic.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok || atomicArgs[e] {
				return true
			}
			switch e.(type) {
			case *ast.Ident, *ast.SelectorExpr:
			default:
				return true
			}
			v := exprVar(pass, e)
			if v == nil {
				return true
			}
			fn, tracked := atomicVars[v]
			if !tracked {
				return true
			}
			pass.Reportf(e.Pos(),
				"plain access of %s, which is accessed atomically elsewhere (atomic.%s): use sync/atomic consistently or migrate the field to an atomic wrapper type",
				v.Name(), fn)
			return false
		})
	}
	return nil
}

// atomicCallee returns the sync/atomic function name for a direct
// atomic call ("" otherwise).
func atomicCallee(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return ""
	}
	if !strings.HasPrefix(fn.Name(), "Load") && !strings.HasPrefix(fn.Name(), "Store") &&
		!strings.HasPrefix(fn.Name(), "Add") && !strings.HasPrefix(fn.Name(), "Swap") &&
		!strings.HasPrefix(fn.Name(), "CompareAndSwap") {
		return ""
	}
	return fn.Name()
}

// exprVar resolves an identifier or field selection to the variable it
// names: a struct field (via Selections) or a package-level/local
// variable. Returns nil for anything else.
func exprVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok && !v.IsField() {
			return v
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
		}
	}
	return nil
}
