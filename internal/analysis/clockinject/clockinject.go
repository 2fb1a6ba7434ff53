// Package clockinject forbids direct wall-clock access in packages
// whose tests depend on deterministic, injectable time.
//
// The PR 5 autotune controller (internal/tune) and the PR 6 QoS
// stage both take a tune.Clock so tests drive throughput windows and
// token-bucket refills with a ManualClock — the convergence and
// isolation tests are deterministic only because no code path consults
// the real clock behind the injected one's back. A stray time.Now() or
// time.Sleep() reintroduces wall time silently: tests stay green on a
// fast machine and flake under load.
//
// Every call to a forbidden time-package function (Now, Since, Until,
// Sleep, After, Tick, NewTimer, NewTicker, AfterFunc) is flagged. The
// two legitimate escape hatches — the WallClock constructor's own
// time.Now and the QoS stage's debt-paying sleep — carry inline
// plfslint:ignore comments backed by the checked-in allowlist.
package clockinject

import (
	"go/ast"
	"go/types"

	"ldplfs/internal/analysis"
)

// Forbidden lists the time-package functions that reintroduce wall
// time.
var Forbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// Analyzer is the production instance.
var Analyzer = &analysis.Analyzer{
	Name: "clockinject",
	Doc: "forbids time.Now/time.Since/time.Sleep (and friends) in packages with an " +
		"injectable-clock contract; wall time must flow through tune.Clock",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !Forbidden[fn.Name()] {
				return true
			}
			pass.Reportf(call.Pos(),
				"time.%s bypasses the injected tune.Clock and breaks the deterministic-test contract; take the clock from the config", fn.Name())
			return true
		})
	}
	return nil
}
